package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// FuzzRecord drives the on-disk record codec with arbitrary bytes.
// The properties under test:
//
//  1. decodeRecord never panics, whatever the input.
//  2. It never accepts a record whose checksum does not verify — a
//     successful decode implies the CRC-32C over the decoded extent
//     matches, so corrupt payloads cannot be served.
//  3. A successful decode re-encodes to exactly the bytes it was
//     decoded from (the codec is canonical), so anything the scanner
//     replays round-trips byte-identical.
//  4. Claimed sizes are honest: the decoded extent lies within the
//     input and its payload length matches the header.
//  5. Only kindPut decodes; kind 2 (the retired tombstone) and every
//     other kind byte are ErrCorrupt.
func FuzzRecord(f *testing.F) {
	// Seed with valid encodings of each shape...
	key := sha256.Sum256([]byte("seed"))
	f.Add(appendRecord(nil, &record{ns: NSResult, key: key, payload: []byte(`{"area":42.5}`)}))
	f.Add(appendRecord(nil, &record{ns: NSCongest, key: key, payload: nil}))
	tomb := appendRecord(nil, &record{ns: NSResult, key: key})
	tomb[0] = 2
	binary.LittleEndian.PutUint32(tomb[len(tomb)-crcLen:], crc32.Checksum(tomb[:len(tomb)-crcLen], castagnoli))
	f.Add(tomb)
	// ...and classic liars: truncations, flipped bits, wild lengths.
	valid := appendRecord(nil, &record{ns: NSResult, key: key, payload: []byte("payload")})
	f.Add(valid[:len(valid)-1])
	flipped := bytes.Clone(valid)
	flipped[recHeaderLen+5] ^= 0x01
	f.Add(flipped)
	wild := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(wild[2:6], 0xFFFFFFFF)
	f.Add(wild)
	f.Add([]byte{})
	f.Add([]byte(segMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, n, err := decodeRecord(data)
		if err != nil {
			if r != nil || n != 0 {
				t.Fatalf("error return leaked a record: r=%v n=%d", r, n)
			}
			if len(data) >= recOverhead && data[0] != kindPut && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("kind %d decoded with err %v, want ErrCorrupt", data[0], err)
			}
			return
		}
		if data[0] != kindPut {
			t.Fatalf("decoded a record of kind %d", data[0])
		}
		if n < recOverhead || n > int64(len(data)) {
			t.Fatalf("decoded size %d outside input of %d bytes", n, len(data))
		}
		if int64(recOverhead+len(r.payload)) != n {
			t.Fatalf("payload %d bytes inconsistent with size %d", len(r.payload), n)
		}
		// The checksum over the accepted extent must actually verify —
		// acceptance without a matching CRC would let corruption through.
		want := binary.LittleEndian.Uint32(data[n-crcLen : n])
		if crc32.Checksum(data[:n-crcLen], castagnoli) != want {
			t.Fatal("decodeRecord accepted a record whose CRC does not verify")
		}
		// Canonical codec: re-encoding reproduces the input extent.
		re := appendRecord(nil, r)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode mismatch:\n in: %x\nout: %x", data[:n], re)
		}
	})
}

// FuzzScan drives the whole-segment scanner with arbitrary images:
// it must never panic, never replay an invalid record, and goodSize
// must always bound a replayable prefix.
func FuzzScan(f *testing.F) {
	key := sha256.Sum256([]byte("scan-seed"))
	img := []byte(segMagic)
	img = appendRecord(img, &record{ns: NSResult, key: key, payload: []byte("a")})
	img = appendRecord(img, &record{ns: NSCongest, key: key, payload: []byte("bb")})
	f.Add(img)
	f.Add(img[:len(img)-3])
	f.Add([]byte(segMagic))
	f.Add([]byte("NOTMAGIC"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var replayed int64
		out, err := scanBytes(data, func(r *record, off, size int64) {
			if off+size > int64(len(data)) {
				t.Fatalf("replayed record extends past input: off=%d size=%d len=%d", off, size, len(data))
			}
			// Every replayed record must independently re-verify.
			if _, _, derr := decodeRecord(data[off : off+size]); derr != nil {
				t.Fatalf("scanner replayed an invalid record: %v", derr)
			}
			replayed++
		})
		if err != nil {
			return // bad magic: nothing replayed, nothing to check
		}
		if out.goodSize > int64(len(data)) || out.goodSize < int64(len(segMagic)) {
			t.Fatalf("goodSize %d outside [%d, %d]", out.goodSize, len(segMagic), len(data))
		}
		// Rescanning the good prefix must replay exactly the same count
		// with no torn/corrupt tail — the prefix is self-consistent.
		var again int64
		out2, err := scanBytes(data[:out.goodSize], func(*record, int64, int64) { again++ })
		if err != nil || out2.torn || out2.corrupt != 0 || again != replayed {
			t.Fatalf("good prefix not clean: err=%v torn=%v corrupt=%d replayed %d/%d",
				err, out2.torn, out2.corrupt, again, replayed)
		}
	})
}

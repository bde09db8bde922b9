package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// The on-disk record codec.  Every segment file is the magic header
// followed by a sequence of records:
//
//	kind(1) ns(1) payloadLen(4 LE) key(32) payload(payloadLen) crc(4 LE)
//
// The CRC-32C checksum covers everything before it (kind, namespace,
// length, key, payload), so a torn or bit-rotten record — including a
// length field pointing past the true payload — fails verification
// instead of being served.  Records are immutable once written; a key
// written again later in the log supersedes every earlier record for
// it.  kindPut is the only kind.  Kind 2 once marked a tombstone that
// no production path ever wrote; it and every other kind byte decode
// as ErrCorrupt.

const (
	// segMagic opens every segment file (WAL and sealed alike); a file
	// without it is rejected wholesale rather than scanned.
	segMagic = "MAESTST1"

	kindPut = 1

	// recHeaderLen is kind+ns+payloadLen, the fixed prefix before the key.
	recHeaderLen = 1 + 1 + 4
	// recOverhead is everything but the payload.
	recOverhead = recHeaderLen + KeyLen + crcLen
	crcLen      = 4

	// MaxPayload bounds one record's payload.  The estimate and
	// congestion documents the serving layer stores are kilobytes; the
	// cap exists so a corrupt length field cannot demand a giant
	// allocation during a scan.
	MaxPayload = 16 << 20
)

// KeyLen is the content-address width: SHA-256, matching the plan and
// result keys the engine and serving layer already mint.
const KeyLen = 32

// Key is one content address.
type Key = [KeyLen]byte

// Namespace separates the key spaces sharing one store.  The engine's
// content addresses are already domain-separated by construction
// (plan hashes, estimate keys, and congestion keys hash different
// canonical renderings), but the namespace byte makes the separation
// structural: a congestion record can never be decoded as an estimate.
type Namespace byte

const (
	// NSResult holds serialized estimate results (serve.CacheKey keyed).
	NSResult Namespace = 1
	// NSCongest holds serialized congestion maps, keyed by serve's
	// congestion key.
	NSCongest Namespace = 2
	// Namespace 3 held compiled-plan metadata.  It is retired and must
	// not be reused: old records still decode, and nothing reads them.
	// NSTrace holds sampled request traces (obs.EncodeTrace payloads),
	// keyed by trace id (16 bytes) + span id (8 bytes) + zero padding —
	// one record per hop, so a distributed trace's hops share a key
	// prefix and stitch back together on read.
	NSTrace Namespace = 4
	// NSFloorplan holds finished floorplan job records (serve job-id
	// keyed: the SHA-256 of the canonical request content), so a
	// completed plan survives a server restart and GET /v1/jobs/{id}
	// can rehydrate it from disk.
	NSFloorplan Namespace = 5
)

// castagnoli is the CRC-32C table; hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt marks a record (or segment header) that failed
// structural validation or its checksum.  Scanners use it to decide
// between truncating a torn WAL tail and skipping a rotten sealed
// region.
var ErrCorrupt = errors.New("store: corrupt record")

// errShort marks a record cut off by the end of the file: not enough
// bytes remain for the shape its header promises.  A short final
// record is the signature of a crash mid-append.
var errShort = errors.New("store: short record")

// record is one decoded log entry.
type record struct {
	ns      Namespace
	key     Key
	payload []byte
}

// size returns the record's encoded length in bytes.
func (r *record) size() int64 { return int64(recOverhead + len(r.payload)) }

// appendRecord encodes r onto buf and returns the extended slice.
func appendRecord(buf []byte, r *record) []byte {
	start := len(buf)
	buf = append(buf, kindPut, byte(r.ns))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.payload)))
	buf = append(buf, r.key[:]...)
	buf = append(buf, r.payload...)
	crc := crc32.Checksum(buf[start:], castagnoli)
	return binary.LittleEndian.AppendUint32(buf, crc)
}

// decodeRecord decodes one record from the front of b, returning the
// record and its encoded size.  Errors:
//
//   - errShort: b ends before the record does (a torn final append)
//   - ErrCorrupt: the shape is invalid (a kind other than kindPut, an
//     oversized length) or the checksum fails
//
// The returned payload aliases b; callers that outlive b must copy.
func decodeRecord(b []byte) (*record, int64, error) {
	if len(b) < recOverhead {
		return nil, 0, errShort
	}
	if kind := b[0]; kind != kindPut {
		return nil, 0, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, kind)
	}
	ns := Namespace(b[1])
	payLen := binary.LittleEndian.Uint32(b[2:6])
	if payLen > MaxPayload {
		return nil, 0, fmt.Errorf("%w: payload length %d exceeds cap", ErrCorrupt, payLen)
	}
	total := recOverhead + int(payLen)
	if len(b) < total {
		return nil, 0, errShort
	}
	want := binary.LittleEndian.Uint32(b[total-crcLen : total])
	if crc32.Checksum(b[:total-crcLen], castagnoli) != want {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	r := &record{ns: ns}
	copy(r.key[:], b[recHeaderLen:recHeaderLen+KeyLen])
	r.payload = b[recHeaderLen+KeyLen : total-crcLen]
	return r, int64(total), nil
}

// readRecordAt reads and CRC-verifies the record of known encoded
// size at off.  Every disk read in the store goes through here, so
// bit rot after open is caught at serve time, not just at scan time.
// The payload aliases a buffer read for this call alone, so it is the
// caller's to keep.
func readRecordAt(f io.ReaderAt, off, size int64) (*record, error) {
	if size < recOverhead || size > recOverhead+MaxPayload {
		return nil, fmt.Errorf("%w: implausible record size %d", ErrCorrupt, size)
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("store: read record: %w", err)
	}
	r, n, err := decodeRecord(buf)
	if err != nil {
		return nil, err
	}
	if n != size {
		return nil, fmt.Errorf("%w: record size %d, indexed %d", ErrCorrupt, n, size)
	}
	return r, nil
}

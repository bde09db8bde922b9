// Package hdl is the estimator's front end (paper Fig. 1, "Circuit
// Schematic ... expressed in a standard hardware description
// language"): it reads and writes the .mnet structural netlist
// language and reads ISCAS-style .bench gate-level files, translating
// both into the netlist.Circuit "mathematical representation for
// numerical analysis".
package hdl

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"

	"maest/internal/netlist"
)

// The .mnet language is line-oriented:
//
//	# comment
//	module small
//	port in a
//	port in b
//	port out y
//	device g1 NAND2 a b n1
//	device g2 INV n1 y
//	end
//
// device lines connect instance pins to nets in pin order; "-" leaves
// a pin unconnected.  Names beginning with "$" are reserved for
// generated nets and devices and are rejected from source text.

// unconnected is the .mnet spelling of an open pin.
const unconnected = "-"

// maxLine is the longest raw line ParseMnet accepts, its '\n'
// excluded and a '\r' before it counted.  A longer line fails with
// bufio.ErrTooLong: limit and error text are those of a bufio.Scanner
// with a 1 MiB buffer, which the parser's error contract keeps.
const maxLine = 1<<20 - 1

// ParseMnet parses one module from r.  It reads r whole into one
// string and tokenizes it in place: fields are substrings of the
// source until the built circuit's names are compacted into one string
// of their own, and the circuit itself comes from the Builder's arenas,
// so a parse allocates little beyond the source and the circuit.
func ParseMnet(r io.Reader) (*netlist.Circuit, error) {
	src, readErr := readSource(r)
	var (
		b      *netlist.Builder
		line   int
		closed bool
		fields []string
		nets   []string
	)
	for rest := src; rest != ""; {
		raw := rest
		if i := strings.IndexByte(rest, '\n'); i >= 0 {
			raw, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		if len(raw) > maxLine {
			return nil, fmt.Errorf("hdl: read: %w", bufio.ErrTooLong)
		}
		line++
		fields = splitFields(fields, raw)
		if len(fields) == 0 || fields[0][0] == '#' {
			continue
		}
		key := fields[0]
		if b == nil && key != "module" {
			return nil, fmt.Errorf("hdl: line %d: %q before module header", line, key)
		}
		if closed {
			return nil, fmt.Errorf("hdl: line %d: content after 'end'", line)
		}
		switch key {
		case "module":
			if b != nil {
				return nil, fmt.Errorf("hdl: line %d: duplicate module header", line)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("hdl: line %d: want 'module <name>'", line)
			}
			if err := checkName(fields[1], line); err != nil {
				return nil, err
			}
			b = netlist.NewBuilder(fields[1])
			b.Grow(deviceBound(rest))
		case "port":
			if len(fields) != 3 {
				return nil, fmt.Errorf("hdl: line %d: want 'port <dir> <net>'", line)
			}
			dir, err := netlist.ParsePortDir(fields[1])
			if err != nil {
				return nil, fmt.Errorf("hdl: line %d: %v", line, err)
			}
			if err := checkName(fields[2], line); err != nil {
				return nil, err
			}
			b.AddPort(fields[2], dir, fields[2])
		case "device":
			if len(fields) < 4 {
				return nil, fmt.Errorf("hdl: line %d: want 'device <name> <type> <net>...'", line)
			}
			if err := checkName(fields[1], line); err != nil {
				return nil, err
			}
			nets = nets[:0]
			for _, f := range fields[3:] {
				if f == unconnected {
					f = "" // an empty name leaves the pin unconnected
				} else if err := checkName(f, line); err != nil {
					return nil, err
				}
				nets = append(nets, f)
			}
			b.AddDevice(fields[1], fields[2], nets...)
		case "end":
			if len(fields) != 1 {
				return nil, fmt.Errorf("hdl: line %d: 'end' takes no arguments", line)
			}
			closed = true
		default:
			return nil, fmt.Errorf("hdl: line %d: unknown directive %q", line, key)
		}
	}
	if readErr != nil {
		return nil, fmt.Errorf("hdl: read: %w", readErr)
	}
	if b == nil {
		return nil, fmt.Errorf("hdl: no module found")
	}
	if !closed {
		return nil, fmt.Errorf("hdl: module not closed with 'end'")
	}
	c, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("hdl: %w", err)
	}
	compactNames(c)
	return c, nil
}

// deviceBound bounds the device lines in src from above for
// Builder.Grow without a pass over its lines.  Every device line holds
// the word "device" and is at least as long as "device a b c", so blank
// lines and comments reserve nothing, and no padding can make Grow
// reserve more than a module of real devices as long as src would.
func deviceBound(src string) int {
	return min(strings.Count(src, "device"), len(src)/len("device a b c\n")+1)
}

// compactNames moves every name in c into one fresh string.  Until
// then each is a substring of the source, so a circuit held in a cache
// would keep its whole source alive, comments and padding included;
// after it, a circuit retains its names and nothing else.  Each device
// keeps a copy of its type (a map to share them costs more than the
// bytes), and a port's name is its net's, as ParseMnet builds them.
func compactNames(c *netlist.Circuit) {
	names := func(f func(*string)) {
		f(&c.Name)
		for _, d := range c.Devices {
			f(&d.Name)
			f(&d.Type)
		}
		for _, n := range c.Nets {
			f(&n.Name)
		}
	}
	size := 0
	names(func(s *string) { size += len(*s) })
	var sb strings.Builder
	sb.Grow(size)
	names(func(s *string) { sb.WriteString(*s) })
	all, off := sb.String(), 0
	names(func(s *string) {
		*s, off = all[off:off+len(*s)], off+len(*s)
	})
	for _, p := range c.Ports {
		p.Name = p.Net.Name
	}
}

// readSource reads r to the end into one string, sized up front when
// r reports its remaining length (strings.Reader, bytes.Reader and
// bytes.Buffer do).  On a read error it returns what was read with
// the error, which ParseMnet reports after the lines read before it.
func readSource(r io.Reader) (string, error) {
	var sb strings.Builder
	if l, ok := r.(interface{ Len() int }); ok {
		sb.Grow(l.Len())
	}
	_, err := io.Copy(&sb, r)
	return sb.String(), err
}

// splitFields returns the fields of line in buf's storage: what
// strings.Fields returns, without allocating once buf has grown.  A
// line holding any byte >= 0x80 goes to strings.Fields itself, so
// Unicode spaces (U+0085, U+00A0, ...) split exactly as they do there.
func splitFields(buf []string, line string) []string {
	buf = buf[:0]
	start := -1
	for i := 0; i < len(line); i++ {
		switch c := line[i]; {
		case c >= utf8.RuneSelf:
			return append(buf[:0], strings.Fields(line)...)
		case c == ' ' || c >= '\t' && c <= '\r':
			if start >= 0 {
				buf = append(buf, line[start:i])
				start = -1
			}
		case start < 0:
			start = i
		}
	}
	if start >= 0 {
		buf = append(buf, line[start:])
	}
	return buf
}

func checkName(name string, line int) error {
	if strings.HasPrefix(name, "$") {
		return fmt.Errorf("hdl: line %d: name %q: '$' prefix is reserved for generated names", line, name)
	}
	if name == unconnected {
		return fmt.Errorf("hdl: line %d: %q is reserved for unconnected pins", line, name)
	}
	return nil
}

// WriteMnet serializes c in .mnet form.  Generated "$" names survive a
// write (they are re-readable only after renaming), so WriteMnet
// rejects circuits containing them rather than emit an unparsable
// file.
func WriteMnet(w io.Writer, c *netlist.Circuit) error {
	for _, d := range c.Devices {
		if strings.HasPrefix(d.Name, "$") || strings.Contains(d.Name, "$") {
			return fmt.Errorf("hdl: device %q has a generated name; rename before writing", d.Name)
		}
	}
	for _, n := range c.Nets {
		if strings.HasPrefix(n.Name, "$") {
			return fmt.Errorf("hdl: net %q has a generated name; rename before writing", n.Name)
		}
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "module %s\n", c.Name)
	for _, p := range c.Ports {
		fmt.Fprintf(bw, "port %s %s\n", p.Dir, p.Net.Name)
	}
	for _, d := range c.Devices {
		fmt.Fprintf(bw, "device %s %s", d.Name, d.Type)
		for _, n := range d.Pins {
			if n == nil {
				fmt.Fprintf(bw, " %s", unconnected)
			} else {
				fmt.Fprintf(bw, " %s", n.Name)
			}
		}
		fmt.Fprintln(bw)
	}
	fmt.Fprintln(bw, "end")
	return bw.Flush()
}

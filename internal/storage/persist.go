package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"dvm/internal/bag"
	"dvm/internal/obs/trace"
	"dvm/internal/schema"
)

// Binary snapshot format:
//
//	magic "DVM1" | u32 tableCount
//	per table: str name | u8 kind | u32 colCount
//	           per col: str name | u8 type
//	           u32 distinctTuples
//	           per tuple: u32 multiplicity | per column: value
//	value: u8 tag | payload (i64 / f64 bits / str / u8 bool; NULL empty)
//
// Strings are u32 length + bytes. All integers little-endian.
//
// Earlier versions also wrote "DVM2", a variant carrying a
// partitioned-table registry. Load rejects it by name.

var (
	snapshotMagic   = [4]byte{'D', 'V', 'M', '1'}
	snapshotMagicV2 = [4]byte{'D', 'V', 'M', '2'}
)

const (
	tagNull byte = iota
	tagInt
	tagFloat
	tagString
	tagBool
)

// countingWriter wraps an io.Writer and tallies bytes written, so Save
// can report snapshot size without buffering the whole snapshot.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// Save writes a snapshot of the whole database (external and internal
// tables) to w. The snapshot restores with Load. When a registry is
// attached via SetMetrics, the bytes written are recorded as
// snapshot_save_bytes.
func (db *Database) Save(w io.Writer) error {
	cw := &countingWriter{w: w}
	sp := db.tracer.StartTrace(trace.SpanSnapshotSave)
	defer func() {
		sp.SetAttrs(trace.Int("bytes", cw.n), trace.Int("tables", int64(len(db.tables))))
		sp.End()
	}()
	if db.metrics != nil {
		defer func() { db.metrics.Counter("snapshot_save_bytes", "").Add(cw.n) }()
	}
	bw := bufio.NewWriter(cw)
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return err
	}
	names := db.Names()
	if err := writeU32(bw, uint32(len(names))); err != nil {
		return err
	}
	for _, name := range names {
		t := db.tables[name]
		if err := writeStr(bw, t.name); err != nil {
			return err
		}
		if err := bw.WriteByte(byte(t.kind)); err != nil {
			return err
		}
		if err := writeU32(bw, uint32(t.sch.Len())); err != nil {
			return err
		}
		for i := 0; i < t.sch.Len(); i++ {
			c := t.sch.Column(i)
			if err := writeStr(bw, c.Name); err != nil {
				return err
			}
			if err := bw.WriteByte(byte(c.Type)); err != nil {
				return err
			}
		}
		if err := writeU32(bw, uint32(t.data.Distinct())); err != nil {
			return err
		}
		// Ordered iteration keeps snapshot bytes deterministic: the same
		// database always serializes identically (diffable, hashable).
		var werr error
		t.data.EachOrdered(func(tu schema.Tuple, n int) {
			if werr != nil {
				return
			}
			if werr = writeU32(bw, uint32(n)); werr != nil {
				return
			}
			for _, v := range tu {
				if werr = writeValue(bw, v); werr != nil {
					return
				}
			}
		})
		if werr != nil {
			return werr
		}
	}
	return bw.Flush()
}

// Load restores a database snapshot written by Save.
func Load(r io.Reader) (*Database, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("storage: load: %w", err)
	}
	if magic == snapshotMagicV2 {
		return nil, fmt.Errorf("storage: load: unsupported snapshot format %q (only %q is readable)", magic[:], snapshotMagic[:])
	}
	if magic != snapshotMagic {
		return nil, fmt.Errorf("storage: load: bad magic %q", magic[:])
	}
	db := NewDatabase()
	tableCount, err := readU32(br)
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < tableCount; i++ {
		name, err := readStr(br)
		if err != nil {
			return nil, err
		}
		kindByte, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		if kindByte > byte(Internal) {
			return nil, fmt.Errorf("storage: load: bad table kind %d for %q", kindByte, name)
		}
		colCount, err := readU32(br)
		if err != nil {
			return nil, err
		}
		cols := make([]schema.Column, colCount)
		for j := range cols {
			cn, err := readStr(br)
			if err != nil {
				return nil, err
			}
			ct, err := br.ReadByte()
			if err != nil {
				return nil, err
			}
			if schema.Type(ct) > schema.TBool {
				return nil, fmt.Errorf("storage: load: bad column type %d", ct)
			}
			cols[j] = schema.Col(cn, schema.Type(ct))
		}
		sch := schema.NewSchema(cols...)
		tb, err := db.Create(name, sch, Kind(kindByte))
		if err != nil {
			return nil, err
		}
		distinct, err := readU32(br)
		if err != nil {
			return nil, err
		}
		data := bag.New()
		for j := uint32(0); j < distinct; j++ {
			mult, err := readU32(br)
			if err != nil {
				return nil, err
			}
			if mult == 0 {
				return nil, fmt.Errorf("storage: load: zero multiplicity in %q", name)
			}
			tu := make(schema.Tuple, colCount)
			for k := range tu {
				v, err := readValue(br)
				if err != nil {
					return nil, err
				}
				tu[k] = v
			}
			if err := sch.Validate(tu); err != nil {
				return nil, fmt.Errorf("storage: load: %w", err)
			}
			data.Add(tu, int(mult))
		}
		tb.Replace(data)
	}
	return db, nil
}

func writeU32(w *bufio.Writer, v uint32) error {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	_, err := w.Write(buf[:])
	return err
}

func readU32(r *bufio.Reader) (uint32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}

func writeU64(w *bufio.Writer, v uint64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	_, err := w.Write(buf[:])
	return err
}

func readU64(r *bufio.Reader) (uint64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

func writeStr(w *bufio.Writer, s string) error {
	if err := writeU32(w, uint32(len(s))); err != nil {
		return err
	}
	_, err := w.WriteString(s)
	return err
}

func readStr(r *bufio.Reader) (string, error) {
	n, err := readU32(r)
	if err != nil {
		return "", err
	}
	if n > 1<<24 {
		return "", fmt.Errorf("storage: load: string length %d too large", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func writeValue(w *bufio.Writer, v schema.Value) error {
	switch v.Type() {
	case schema.TNull:
		return w.WriteByte(tagNull)
	case schema.TInt:
		if err := w.WriteByte(tagInt); err != nil {
			return err
		}
		return writeU64(w, uint64(v.AsInt()))
	case schema.TFloat:
		if err := w.WriteByte(tagFloat); err != nil {
			return err
		}
		return writeU64(w, math.Float64bits(v.AsFloat()))
	case schema.TString:
		if err := w.WriteByte(tagString); err != nil {
			return err
		}
		return writeStr(w, v.AsString())
	case schema.TBool:
		if err := w.WriteByte(tagBool); err != nil {
			return err
		}
		if v.AsBool() {
			return w.WriteByte(1)
		}
		return w.WriteByte(0)
	}
	return fmt.Errorf("storage: save: unknown value type %v", v.Type())
}

func readValue(r *bufio.Reader) (schema.Value, error) {
	tag, err := r.ReadByte()
	if err != nil {
		return schema.Value{}, err
	}
	switch tag {
	case tagNull:
		return schema.Null(), nil
	case tagInt:
		u, err := readU64(r)
		if err != nil {
			return schema.Value{}, err
		}
		return schema.Int(int64(u)), nil
	case tagFloat:
		u, err := readU64(r)
		if err != nil {
			return schema.Value{}, err
		}
		return schema.Float(math.Float64frombits(u)), nil
	case tagString:
		s, err := readStr(r)
		if err != nil {
			return schema.Value{}, err
		}
		return schema.Str(s), nil
	case tagBool:
		b, err := r.ReadByte()
		if err != nil {
			return schema.Value{}, err
		}
		return schema.Bool(b != 0), nil
	}
	return schema.Value{}, fmt.Errorf("storage: load: unknown value tag %d", tag)
}

package exec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// rowVersion is the codec version stamped into every encoded row's
// header byte. Decoders reject other versions, so the layout can
// evolve without silently misreading old rows.
const rowVersion = 0x01

// ColType is a column's value type.
type ColType uint8

// Column value types. The first four are fixed-width and live at
// static offsets in the encoded row; String and Bytes are
// variable-length with a 16-bit length prefix.
const (
	// TUint64 is an unsigned 64-bit integer column.
	TUint64 ColType = iota + 1
	// TInt64 is a signed 64-bit integer column.
	TInt64
	// TFloat64 is an IEEE-754 double column.
	TFloat64
	// TBool is a boolean column.
	TBool
	// TString is a UTF-8 string column (max 65535 bytes encoded).
	TString
	// TBytes is a raw byte-slice column (max 65535 bytes).
	TBytes
)

func (t ColType) String() string {
	switch t {
	case TUint64:
		return "uint64"
	case TInt64:
		return "int64"
	case TFloat64:
		return "float64"
	case TBool:
		return "bool"
	case TString:
		return "string"
	case TBytes:
		return "bytes"
	}
	return "invalid"
}

// fixedSize returns the encoded width of a fixed-width type, or 0 for
// variable-length types.
func (t ColType) fixedSize() int {
	switch t {
	case TUint64, TInt64, TFloat64:
		return 8
	case TBool:
		return 1
	}
	return 0
}

// Column is one named, typed column in a schema.
type Column struct {
	// Name is the column's name, unique within its schema.
	Name string
	// Type is the column's value type.
	Type ColType
}

// Schema is an ordered list of typed columns plus the codec turning a
// row of Go values into the engine's opaque []byte value and back.
// Fixed-width columns are encoded before variable-length ones
// (regardless of declaration order), so every fixed column sits at a
// static offset and DecodeCol can read it without touching the rest of
// the row — that partial decode is what predicate pushdown evaluates
// inside the B-tree iterator. A Schema is immutable after NewSchema
// and safe for concurrent use.
type Schema struct {
	cols   []Column
	byName map[string]int
	// offset[i] is the static byte offset of fixed column i (after the
	// header); -1 for variable-length columns, which are walked.
	offset []int
	// varOrder lists the indices of variable-length columns in their
	// encoded order.
	varOrder []int
	// fixedEnd is the offset where the variable-length region starts.
	fixedEnd int
}

// NewSchema builds a schema from cols. Column names must be non-empty
// and unique; at least one column is required.
func NewSchema(cols ...Column) (*Schema, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("exec: schema needs at least one column")
	}
	s := &Schema{
		cols:   append([]Column(nil), cols...),
		byName: make(map[string]int, len(cols)),
		offset: make([]int, len(cols)),
	}
	off := 0
	for i, c := range s.cols {
		if c.Name == "" {
			return nil, fmt.Errorf("exec: column %d has empty name", i)
		}
		if _, dup := s.byName[c.Name]; dup {
			return nil, fmt.Errorf("exec: duplicate column %q", c.Name)
		}
		if c.Type.fixedSize() == 0 && c.Type != TString && c.Type != TBytes {
			return nil, fmt.Errorf("exec: column %q has invalid type %d", c.Name, c.Type)
		}
		s.byName[c.Name] = i
		if w := c.Type.fixedSize(); w > 0 {
			s.offset[i] = off
			off += w
		} else {
			s.offset[i] = -1
			s.varOrder = append(s.varOrder, i)
		}
	}
	s.fixedEnd = off
	return s, nil
}

// MustSchema is NewSchema that panics on error (package-level schema
// literals in examples and tests).
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Cols returns the schema's columns in declaration order.
func (s *Schema) Cols() []Column { return append([]Column(nil), s.cols...) }

// NumCols returns the number of columns.
func (s *Schema) NumCols() int { return len(s.cols) }

// ColIndex returns the declaration index of the named column.
func (s *Schema) ColIndex(name string) (int, bool) {
	i, ok := s.byName[name]
	return i, ok
}

// normalize coerces v to the canonical Go type for t, accepting the
// untyped-constant-friendly int for the numeric columns.
func normalize(v any, t ColType) (any, error) {
	if _, err := fits(v, t); err != nil {
		return nil, err
	}
	if x, isInt := v.(int); isInt {
		if t == TUint64 {
			return uint64(x), nil
		}
		return int64(x), nil
	}
	return v, nil
}

// fits checks v against column type t — the exact Go type, or an int
// for a numeric column — without boxing anything, and returns the byte
// length of a variable-length value.
func fits(v any, t ColType) (varLen int, err error) {
	switch x := v.(type) {
	case uint64:
		if t == TUint64 {
			return 0, nil
		}
	case int64:
		if t == TInt64 {
			return 0, nil
		}
	case int:
		if t == TUint64 && x < 0 {
			return 0, fmt.Errorf("exec: negative value %d for uint64 column", x)
		}
		if t == TUint64 || t == TInt64 {
			return 0, nil
		}
	case float64:
		if t == TFloat64 {
			return 0, nil
		}
	case bool:
		if t == TBool {
			return 0, nil
		}
	case string:
		if t == TString {
			return len(x), nil
		}
	case []byte:
		if t == TBytes {
			return len(x), nil
		}
	}
	return 0, fmt.Errorf("exec: value %T does not fit %v column", v, t)
}

// Encode packs vals (one per column, declaration order) into the
// engine's opaque row bytes. Numeric columns accept int literals;
// everything else requires the column's exact Go type.
// Every loaded or updated row passes through here: the buffer is sized
// exactly and nothing is boxed, so the one allocation is the row.
func (s *Schema) Encode(vals ...any) ([]byte, error) {
	if len(vals) != len(s.cols) {
		return nil, fmt.Errorf("%w: got %d values for %d columns", ErrSchema, len(vals), len(s.cols))
	}
	size := 1 + s.fixedEnd
	var tooLong error // reported only once every column's type has been checked
	for i, c := range s.cols {
		n, err := fits(vals[i], c.Type)
		if err != nil {
			return nil, fmt.Errorf("%w: column %q: %v", ErrSchema, c.Name, err)
		}
		if s.offset[i] < 0 {
			size += 2 + n
			if n > math.MaxUint16 && tooLong == nil {
				tooLong = fmt.Errorf("%w: column %q: %d bytes exceeds max %d", ErrSchema, c.Name, n, math.MaxUint16)
			}
		}
	}
	if tooLong != nil {
		return nil, tooLong
	}
	buf := make([]byte, 1+s.fixedEnd, size)
	buf[0] = rowVersion
	for i := range s.cols {
		if off := s.offset[i]; off >= 0 {
			putFixed(buf[1+off:], vals[i])
		}
	}
	for _, i := range s.varOrder {
		switch x := vals[i].(type) {
		case string:
			buf = appendVar(buf, x)
		case []byte:
			buf = appendVar(buf, x)
		}
	}
	return buf, nil
}

// appendVar appends one variable-length value behind its length.
func appendVar[T string | []byte](buf []byte, x T) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(x)))
	return append(buf, x...)
}

// putFixed writes a fixed-width value fits has accepted at dst[0:].
func putFixed(dst []byte, v any) {
	switch x := v.(type) {
	case uint64:
		binary.LittleEndian.PutUint64(dst, x)
	case int64:
		binary.LittleEndian.PutUint64(dst, uint64(x))
	case int: // an int literal for a TUint64 or TInt64 column
		binary.LittleEndian.PutUint64(dst, uint64(x))
	case float64:
		binary.LittleEndian.PutUint64(dst, math.Float64bits(x))
	case bool:
		dst[0] = 0
		if x {
			dst[0] = 1
		}
	}
}

// getFixed reads fixed column c's value from src[0:]. A bool byte other
// than the 0 or 1 putFixed writes is refused, so a decoded row encodes
// back to the bytes it came from.
func getFixed(src []byte, c Column) (any, error) {
	switch c.Type {
	case TUint64:
		return binary.LittleEndian.Uint64(src), nil
	case TInt64:
		return int64(binary.LittleEndian.Uint64(src)), nil
	case TFloat64:
		return math.Float64frombits(binary.LittleEndian.Uint64(src)), nil
	case TBool:
		if src[0] > 1 {
			return nil, fmt.Errorf("%w: column %q: bool byte %#x", ErrSchema, c.Name, src[0])
		}
		return src[0] == 1, nil
	}
	return nil, nil
}

// check validates the header and fixed region of an encoded row.
func (s *Schema) check(buf []byte) error {
	if len(buf) < 1 || buf[0] != rowVersion {
		return fmt.Errorf("%w: bad row header (len %d)", ErrSchema, len(buf))
	}
	if len(buf) < 1+s.fixedEnd {
		return fmt.Errorf("%w: row truncated: %d bytes, fixed region needs %d", ErrSchema, len(buf), 1+s.fixedEnd)
	}
	return nil
}

// Decode unpacks an encoded row into one value per column, in
// declaration order. String and Bytes values are copied out of buf, so
// the result outlives the page the row was read from. A row Decode
// accepts is exactly what Encode makes of the values it returns: bytes
// after the last column are refused.
func (s *Schema) Decode(buf []byte) ([]any, error) {
	if err := s.check(buf); err != nil {
		return nil, err
	}
	out := make([]any, len(s.cols))
	for i, c := range s.cols {
		if off := s.offset[i]; off >= 0 {
			v, err := getFixed(buf[1+off:], c)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
	}
	pos := 1 + s.fixedEnd
	for _, i := range s.varOrder {
		b, next, err := s.varAt(buf, pos, i)
		if err != nil {
			return nil, err
		}
		if s.cols[i].Type == TString {
			out[i] = string(b)
		} else {
			out[i] = append([]byte(nil), b...)
		}
		pos = next
	}
	if pos != len(buf) {
		return nil, fmt.Errorf("%w: %d bytes after the last column", ErrSchema, len(buf)-pos)
	}
	return out, nil
}

// varAt reads the length-prefixed payload starting at pos for column i
// and returns it (aliasing buf) with the offset past it.
func (s *Schema) varAt(buf []byte, pos, i int) ([]byte, int, error) {
	if pos+2 > len(buf) {
		return nil, 0, fmt.Errorf("%w: row truncated at column %q length", ErrSchema, s.cols[i].Name)
	}
	n := int(binary.LittleEndian.Uint16(buf[pos:]))
	pos += 2
	if pos+n > len(buf) {
		return nil, 0, fmt.Errorf("%w: row truncated in column %q payload", ErrSchema, s.cols[i].Name)
	}
	return buf[pos : pos+n], pos + n, nil
}

// DecodeCol extracts a single column from an encoded row without
// decoding the rest: fixed-width columns read directly at their static
// offset, variable-length ones walk only the preceding length
// prefixes. This is the partial decode predicate pushdown runs against
// page-resident bytes inside the B-tree iterator. String and Bytes
// results are copies; a bool byte other than 0 or 1 is refused, as by
// Decode.
func (s *Schema) DecodeCol(buf []byte, i int) (any, error) {
	if i < 0 || i >= len(s.cols) {
		return nil, fmt.Errorf("%w: column index %d out of range", ErrSchema, i)
	}
	if err := s.check(buf); err != nil {
		return nil, err
	}
	if off := s.offset[i]; off >= 0 {
		return getFixed(buf[1+off:], s.cols[i])
	}
	pos := 1 + s.fixedEnd
	for _, vi := range s.varOrder {
		b, next, err := s.varAt(buf, pos, vi)
		if err != nil {
			return nil, err
		}
		if vi == i {
			if s.cols[i].Type == TString {
				return string(b), nil
			}
			return append([]byte(nil), b...), nil
		}
		pos = next
	}
	return nil, fmt.Errorf("%w: column %d not found", ErrSchema, i)
}

package exec

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Column{Name: "id", Type: TUint64},
		Column{Name: "name", Type: TString},
		Column{Name: "balance", Type: TInt64},
		Column{Name: "score", Type: TFloat64},
		Column{Name: "active", Type: TBool},
		Column{Name: "blob", Type: TBytes},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchemaRoundTrip(t *testing.T) {
	s := testSchema(t)
	vals := []any{uint64(42), "alice", int64(-7), 3.5, true, []byte{0xDE, 0xAD}}
	buf, err := s.Encode(vals...)
	if err != nil {
		t.Fatal(err)
	}
	if buf[0] != rowVersion {
		t.Fatalf("header byte = %#x, want %#x", buf[0], rowVersion)
	}
	got, err := s.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vals) {
		t.Fatalf("decoded %d cols, want %d", len(got), len(vals))
	}
	if got[0] != uint64(42) || got[1] != "alice" || got[2] != int64(-7) ||
		got[3] != 3.5 || got[4] != true || !bytes.Equal(got[5].([]byte), []byte{0xDE, 0xAD}) {
		t.Fatalf("round trip mismatch: %v", got)
	}
}

func TestSchemaIntLiterals(t *testing.T) {
	s := MustSchema(Column{Name: "a", Type: TUint64}, Column{Name: "b", Type: TInt64})
	buf, err := s.Encode(7, -3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != uint64(7) || got[1] != int64(-3) {
		t.Fatalf("got %v", got)
	}
	if _, err := s.Encode(-1, 0); !errors.Is(err, ErrSchema) {
		t.Fatalf("negative literal into uint64 column: err = %v, want ErrSchema", err)
	}
}

func TestSchemaDecodeCol(t *testing.T) {
	s := testSchema(t)
	buf, err := s.Encode(uint64(9), "bob", int64(100), 1.25, false, []byte("xyz"))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []any{uint64(9), "bob", int64(100), 1.25, false} {
		got, err := s.DecodeCol(buf, i)
		if err != nil {
			t.Fatalf("col %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("col %d = %v, want %v", i, got, want)
		}
	}
	got, err := s.DecodeCol(buf, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.([]byte), []byte("xyz")) {
		t.Fatalf("col 5 = %v", got)
	}
	if _, err := s.DecodeCol(buf, 6); !errors.Is(err, ErrSchema) {
		t.Fatalf("out-of-range column: err = %v", err)
	}
}

func TestSchemaErrors(t *testing.T) {
	s := testSchema(t)
	if _, err := s.Encode(uint64(1)); !errors.Is(err, ErrSchema) {
		t.Fatalf("arity: err = %v", err)
	}
	if _, err := s.Encode("no", "b", int64(0), 0.0, true, []byte{}); !errors.Is(err, ErrSchema) {
		t.Fatalf("type: err = %v", err)
	}
	if _, err := s.Decode([]byte{0x7F, 0, 0}); !errors.Is(err, ErrSchema) {
		t.Fatalf("bad version: err = %v", err)
	}
	good, err := s.Encode(uint64(1), "x", int64(2), 0.0, true, []byte("y"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Decode(good[:len(good)-1]); !errors.Is(err, ErrSchema) {
		t.Fatalf("truncated: err = %v", err)
	}
	if _, err := s.Decode(append(good[:len(good):len(good)], 0)); !errors.Is(err, ErrSchema) {
		t.Fatalf("a byte after the last column: err = %v", err)
	}
	// The bool "active" is the fourth fixed column: header, then 3×8 bytes.
	notBool := append([]byte(nil), good...)
	notBool[1+3*8] = 2
	if _, err := s.Decode(notBool); !errors.Is(err, ErrSchema) {
		t.Fatalf("bool byte 2: Decode err = %v", err)
	}
	if _, err := s.DecodeCol(notBool, 4); !errors.Is(err, ErrSchema) {
		t.Fatalf("bool byte 2: DecodeCol err = %v", err)
	}
	if _, err := NewSchema(); err == nil {
		t.Fatal("empty schema accepted")
	}
	if _, err := NewSchema(Column{Name: "a", Type: TUint64}, Column{Name: "a", Type: TBool}); err == nil {
		t.Fatal("duplicate column accepted")
	}
}

// FuzzSchemaDecode hands the row codec arbitrary bytes under three
// schemas — mixed columns, a variable-length column declared first, and
// fixed columns only. Decode must never panic; a row it accepts must
// encode back to the very same bytes, and DecodeCol must agree with it
// on every column.
func FuzzSchemaDecode(f *testing.F) {
	schemas := []*Schema{
		MustSchema(Column{Name: "id", Type: TUint64}, Column{Name: "name", Type: TString},
			Column{Name: "balance", Type: TInt64}, Column{Name: "score", Type: TFloat64},
			Column{Name: "active", Type: TBool}, Column{Name: "blob", Type: TBytes}),
		MustSchema(Column{Name: "tag", Type: TString}, Column{Name: "n", Type: TUint64}, Column{Name: "body", Type: TBytes}),
		MustSchema(Column{Name: "k", Type: TUint64}, Column{Name: "on", Type: TBool}, Column{Name: "x", Type: TFloat64}),
	}
	rows := [][]any{
		{uint64(42), "alice", int64(-7), 3.5, true, []byte{0xDE, 0xAD}},
		{"hello", uint64(5), []byte("world")},
		{uint64(1), false, -0.0},
	}
	for i, s := range schemas {
		good, err := s.Encode(rows[i]...)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), good)
		f.Add(uint8(i), good[:len(good)-1])
		f.Add(uint8(i), append(good[:len(good):len(good)], 0))
	}
	f.Add(uint8(2), []byte{rowVersion, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0}) // bool byte 2
	f.Add(uint8(0), []byte{})

	f.Fuzz(func(t *testing.T, pick uint8, buf []byte) {
		s := schemas[int(pick)%len(schemas)]
		vals, err := s.Decode(buf)
		if err != nil {
			if !errors.Is(err, ErrSchema) {
				t.Fatalf("Decode refused with %v, not ErrSchema", err)
			}
			return
		}
		again, err := s.Encode(vals...)
		if err != nil || !bytes.Equal(again, buf) {
			t.Fatalf("decoded %v re-encodes to %x (%v), source %x", vals, again, err, buf)
		}
		for i, want := range vals {
			got, err := s.DecodeCol(buf, i)
			if err != nil || !sameValue(got, want) {
				t.Fatalf("column %d: DecodeCol %v (%v), Decode %v", i, got, err, want)
			}
		}
	})
}

// sameValue compares two decoded column values; floats by their bits,
// so a NaN equals itself.
func sameValue(a, b any) bool {
	switch x := a.(type) {
	case []byte:
		y, ok := b.([]byte)
		return ok && bytes.Equal(x, y)
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	}
	return a == b
}

func TestSchemaVarLenOrdering(t *testing.T) {
	// Var-len column declared first: fixed cols still decode at static
	// offsets, var-len cols walk in encoded order.
	s := MustSchema(
		Column{Name: "tag", Type: TString},
		Column{Name: "n", Type: TUint64},
		Column{Name: "body", Type: TBytes},
	)
	buf, err := s.Encode("hello", uint64(5), []byte("world"))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := s.DecodeCol(buf, 1); err != nil || v != uint64(5) {
		t.Fatalf("fixed col after var-len decl: %v %v", v, err)
	}
	if v, err := s.DecodeCol(buf, 2); err != nil || !bytes.Equal(v.([]byte), []byte("world")) {
		t.Fatalf("second var col: %v %v", v, err)
	}
	got, err := s.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != "hello" || got[1] != uint64(5) || !bytes.Equal(got[2].([]byte), []byte("world")) {
		t.Fatalf("got %v", got)
	}
}

package page

import (
	"bytes"
	"errors"
	"testing"
)

// filledLeaf returns a leaf of size bytes holding keys 10, 20, 30, …
// with values of vlen bytes, as many as fit. With fragment set, keys
// 30, 60, 90, … are then deleted so the heap has reclaimable holes.
func filledLeaf(t testing.TB, size, vlen int, fragment bool) *Page {
	t.Helper()
	p := New(size, TypeLeaf)
	k := uint64(10)
	for p.Append(k, bytes.Repeat([]byte{byte(k)}, vlen)) == nil {
		k += 10
	}
	for d := uint64(30); fragment && d < k; d += 30 {
		if err := p.Delete(d); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// sharedAndOwned wraps two copies of img: one shared, one owned. src is
// the shared page's source bytes, which no mutation may touch.
func sharedAndOwned(img []byte) (shared, owned *Page, src []byte) {
	src = append([]byte(nil), img...)
	return WrapShared(src), wrap(append([]byte(nil), img...)), src
}

// replaceWith is the patch of a whole-row update: it returns val
// whatever the row was.
func replaceWith(val []byte) func([]byte) ([]byte, error) {
	return func([]byte) ([]byte, error) { return val, nil }
}

// grow is a patch that appends 100 bytes to the row; refuse is one that
// fails.
func grow(cur []byte) ([]byte, error) { return append(bytes.Clone(cur), make([]byte, 100)...), nil }

var errRefused = errors.New("patch refused")

func refuse([]byte) ([]byte, error) { return nil, errRefused }

// TestSharedPageCopiesOnFirstWrite: every mutator on a shared page —
// failures included — leaves the shared bytes untouched and leaves the
// page exactly as the same call on an owned copy does.
func TestSharedPageCopiesOnFirstWrite(t *testing.T) {
	roomy := filledLeaf(t, testPageSize, 20, true)
	full := filledLeaf(t, testPageSize, 50, false)
	last := roomy.KeyAt(roomy.NumSlots() - 1)
	other := filledLeaf(t, testPageSize, 7, true)

	cases := []struct {
		name    string
		img     *Page
		op      func(p *Page) error
		wantErr error
	}{
		{"SetLSN", roomy, func(p *Page) error { p.SetLSN(99); return nil }, nil},
		{"SetExtra", roomy, func(p *Page) error { p.SetExtra(7); return nil }, nil},
		{"Insert", roomy, func(p *Page) error { return p.Insert(15, []byte("new")) }, nil},
		{"Insert/compacts", roomy, func(p *Page) error { return p.Insert(15, make([]byte, roomy.FreeSpace()-cellKeyLen)) }, nil},
		{"Insert/exists", roomy, func(p *Page) error { return p.Insert(10, []byte("dup")) }, ErrKeyExists},
		{"Insert/full", full, func(p *Page) error { return p.Insert(15, make([]byte, 50)) }, ErrPageFull},
		{"Append", roomy, func(p *Page) error { return p.Append(last+1, []byte("tail")) }, nil},
		{"Append/not-ascending", roomy, func(p *Page) error { return p.Append(last, []byte("x")) }, ErrNotAscending},
		{"Append/full", full, func(p *Page) error { return p.Append(1<<40, make([]byte, 50)) }, ErrPageFull},
		{"Update/same-size", roomy, func(p *Page) error { return p.Patch(20, replaceWith(bytes.Repeat([]byte("u"), 20))) }, nil},
		{"Update/resize", roomy, func(p *Page) error { return p.Patch(20, replaceWith([]byte("short"))) }, nil},
		{"Update/too-large", full, func(p *Page) error { return p.Patch(20, replaceWith(make([]byte, testPageSize))) }, ErrPageFull},
		{"Update/missing", roomy, func(p *Page) error { return p.Patch(15, replaceWith([]byte("x"))) }, ErrNotFound},
		{"Patch", roomy, func(p *Page) error { return p.Patch(20, grow) }, nil},
		{"Patch/too-large", full, func(p *Page) error { return p.Patch(20, grow) }, ErrPageFull},
		{"Patch/missing", roomy, func(p *Page) error { return p.Patch(15, grow) }, ErrNotFound},
		{"Patch/refused", roomy, func(p *Page) error { return p.Patch(20, refuse) }, errRefused},
		{"Delete", roomy, func(p *Page) error { return p.Delete(20) }, nil},
		{"Delete/missing", roomy, func(p *Page) error { return p.Delete(15) }, ErrNotFound},
		{"Compact", roomy, func(p *Page) error { p.Compact(); return nil }, nil},
		{"CopyFrom", roomy, func(p *Page) error { p.CopyFrom(other.Bytes()); return nil }, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			shared, owned, src := sharedAndOwned(tc.img.Bytes())
			errS, errO := tc.op(shared), tc.op(owned)
			if !errors.Is(errS, tc.wantErr) || !errors.Is(errO, tc.wantErr) {
				t.Fatalf("shared err %v, owned err %v; want %v", errS, errO, tc.wantErr)
			}
			if !bytes.Equal(src, tc.img.Bytes()) {
				t.Fatal("mutating a shared page wrote its source bytes")
			}
			if !bytes.Equal(shared.Bytes(), owned.Bytes()) {
				t.Fatal("shared page differs from the owned copy after the same call")
			}
			if err := shared.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}

	// SplitInto mutates both sides: the source page and its destination.
	t.Run("SplitInto", func(t *testing.T) {
		left, leftOwned, leftSrc := sharedAndOwned(roomy.Bytes())
		empty := New(testPageSize, TypeLeaf)
		right, rightOwned, rightSrc := sharedAndOwned(empty.Bytes())
		sepS, errS := left.SplitInto(right)
		sepO, errO := leftOwned.SplitInto(rightOwned)
		if errS != nil || errO != nil || sepS != sepO {
			t.Fatalf("shared split (%d, %v), owned split (%d, %v)", sepS, errS, sepO, errO)
		}
		if !bytes.Equal(leftSrc, roomy.Bytes()) || !bytes.Equal(rightSrc, empty.Bytes()) {
			t.Fatal("a split wrote the source bytes of a shared side")
		}
		if !bytes.Equal(left.Bytes(), leftOwned.Bytes()) || !bytes.Equal(right.Bytes(), rightOwned.Bytes()) {
			t.Fatal("shared split differs from the owned split")
		}
	})

	// MarkShared hands the current bytes out again: the next mutation
	// copies, and later ones write that copy in place.
	t.Run("MarkShared", func(t *testing.T) {
		p := wrap(append([]byte(nil), roomy.Bytes()...))
		p.SetLSN(1)
		flushed := p.Bytes()
		p.MarkShared()
		p.SetLSN(2)
		copied := p.Bytes()
		p.SetLSN(3)
		if wrap(flushed).LSN() != 1 {
			t.Fatal("a mutation after MarkShared wrote the handed-out bytes")
		}
		if &copied[0] != &p.Bytes()[0] {
			t.Fatal("an owned page copied again on its second mutation")
		}
	})
}

// FuzzPageOps applies a byte-coded sequence of page operations to an
// arbitrary image that passes Check, wrapped shared, and to an owned
// copy. No operation may panic; Check holds after each; the two pages
// stay byte-equal; and no byte ever handed out — the source image, or
// the page's bytes at a simulated flush — changes.
//
// ops is read in triples (code, a, b). a picks the key: even a names
// an existing key (slot a/2 mod NumSlots), odd a the small key a/2; b
// is the value length, its bytes all equal to a.
func FuzzPageOps(f *testing.F) {
	empty := New(256, TypeLeaf)
	f.Add(empty.Bytes(), []byte{0, 3, 10, 0, 5, 4, 1, 7, 3, 2, 0, 0, 6, 0, 0, 5, 9, 0})
	f.Add(filledLeaf(f, 512, 12, true).Bytes(), []byte{2, 2, 12, 2, 4, 30, 3, 6, 0, 4, 0, 0, 1, 9, 40, 6, 0, 0, 0, 1, 200})
	f.Add(filledLeaf(f, 256, 3, false).Bytes(), []byte{0, 1, 255, 1, 0, 1, 2, 0, 0})
	f.Fuzz(func(t *testing.T, img, ops []byte) {
		if len(img) > 4096 || wrap(img).Check() != nil {
			return
		}
		shared, owned, src := sharedAndOwned(img)
		handedOut := [][]byte{src}
		snapshots := [][]byte{append([]byte(nil), img...)}
		for ; len(ops) >= 3; ops = ops[3:] {
			code, a, b := ops[0]%7, ops[1], int(ops[2])
			key := uint64(a >> 1)
			if n := owned.NumSlots(); a&1 == 0 && n > 0 {
				key = owned.KeyAt(int(a>>1) % n)
			}
			val := bytes.Repeat([]byte{a}, b)
			var errS, errO error
			switch code {
			case 0:
				errS, errO = shared.Insert(key, val), owned.Insert(key, val)
			case 1:
				if n := owned.NumSlots(); n > 0 {
					key = owned.KeyAt(n-1) + uint64(a)
				}
				errS, errO = shared.Append(key, val), owned.Append(key, val)
			case 2:
				errS, errO = shared.Patch(key, replaceWith(val)), owned.Patch(key, replaceWith(val))
			case 3:
				errS, errO = shared.Delete(key), owned.Delete(key)
			case 4:
				shared.Compact()
				owned.Compact()
			case 5:
				shared.SetLSN(key<<8 | uint64(b))
				owned.SetLSN(key<<8 | uint64(b))
			case 6:
				// A flush: the page's bytes go to the device, which keeps
				// them; the next mutation must copy.
				handedOut = append(handedOut, shared.Bytes())
				snapshots = append(snapshots, append([]byte(nil), shared.Bytes()...))
				shared.MarkShared()
			}
			if (errS == nil) != (errO == nil) || (errS != nil && errS.Error() != errO.Error()) {
				t.Fatalf("op %d: shared err %v, owned err %v", code, errS, errO)
			}
			if err := shared.Check(); err != nil {
				t.Fatalf("op %d: %v", code, err)
			}
			if !bytes.Equal(shared.Bytes(), owned.Bytes()) {
				t.Fatalf("op %d: shared page differs from the owned copy", code)
			}
		}
		for i, b := range handedOut {
			if !bytes.Equal(b, snapshots[i]) {
				t.Fatalf("handed-out image %d was written after it was shared", i)
			}
		}
	})
}

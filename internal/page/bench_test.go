package page

import (
	"math/rand"
	"testing"
)

func BenchmarkInsert(b *testing.B) {
	data := make([]byte, 4096)
	p := formatData(data, TypeLeaf)
	val := make([]byte, 92)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.FreeSpace() < CellSize(len(val)) {
			p = formatData(data, TypeLeaf)
		}
		if err := p.Insert(uint64(i), val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearch(b *testing.B) {
	p := New(4096, TypeLeaf)
	val := make([]byte, 92)
	var keys []uint64
	for k := uint64(0); ; k++ {
		if err := p.Insert(k*3, val); err != nil {
			break
		}
		keys = append(keys, k*3)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[rng.Intn(len(keys))]
		if _, found := p.Search(k); !found {
			b.Fatal("missing key")
		}
	}
}

func BenchmarkUpdateInPlace(b *testing.B) {
	p := New(4096, TypeLeaf)
	val := make([]byte, 92)
	for k := uint64(0); k < 30; k++ {
		if err := p.Insert(k, val); err != nil {
			b.Fatal(err)
		}
	}
	patch := replaceWith(val)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Patch(uint64(i%30), patch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompact(b *testing.B) {
	template := New(4096, TypeLeaf)
	val := make([]byte, 40)
	for k := uint64(0); k < 60; k++ {
		if err := template.Insert(k, val); err != nil {
			break
		}
	}
	for k := uint64(0); k < 60; k += 2 {
		_ = template.Delete(k)
	}
	scratch := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch, template.Bytes())
		wrap(scratch).Compact()
	}
}

func BenchmarkSplitInto(b *testing.B) {
	template := New(4096, TypeLeaf)
	val := make([]byte, 92)
	for k := uint64(0); ; k++ {
		if err := template.Insert(k, val); err != nil {
			break
		}
	}
	src := make([]byte, 4096)
	dst := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(src, template.Bytes())
		if _, err := wrap(src).SplitInto(formatData(dst, TypeLeaf)); err != nil {
			b.Fatal(err)
		}
	}
}

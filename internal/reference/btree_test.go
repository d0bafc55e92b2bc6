package reference

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// model is a brute-force reference: a slice of (key, id) pairs.
type model struct {
	keys []float64
	ids  []int32
}

func (m *model) insert(k float64, id int32) {
	m.keys = append(m.keys, k)
	m.ids = append(m.ids, id)
}

func (m *model) countGE(k float64) int {
	c := 0
	for _, x := range m.keys {
		if x >= k {
			c++
		}
	}
	return c
}

func (m *model) countGT(k float64) int {
	c := 0
	for _, x := range m.keys {
		if x > k {
			c++
		}
	}
	return c
}

func TestEmpty(t *testing.T) {
	tr := NewDefault()
	if tr.Len() != 0 || tr.KeyCount() != 0 {
		t.Fatal("empty tree not empty")
	}
	if tr.Get(1) != nil {
		t.Fatal("Get on empty tree")
	}
	if tr.CountGE(0) != 0 || tr.CountGT(0) != 0 || tr.CountLE(0) != 0 || tr.CountLT(0) != 0 {
		t.Fatal("counts on empty tree")
	}
	if tr.Min().Valid() {
		t.Fatal("Min valid on empty tree")
	}
	if tr.Seek(5).Valid() {
		t.Fatal("Seek valid on empty tree")
	}
}

func TestInsertGet(t *testing.T) {
	tr := New(4)
	for i := 0; i < 100; i++ {
		tr.Insert(float64(i%10), int32(i))
	}
	if tr.Len() != 100 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.KeyCount() != 10 {
		t.Fatalf("KeyCount = %d", tr.KeyCount())
	}
	p := tr.Get(3)
	if len(p) != 10 {
		t.Fatalf("Get(3) has %d postings", len(p))
	}
	if tr.Get(10.5) != nil {
		t.Fatal("Get of absent key")
	}
}

func TestAscendingOrder(t *testing.T) {
	tr := New(3) // small order to force deep splits
	rng := rand.New(rand.NewSource(21))
	want := make([]float64, 0, 500)
	seen := map[float64]bool{}
	for i := 0; i < 500; i++ {
		k := float64(rng.Intn(200))
		tr.Insert(k, int32(i))
		if !seen[k] {
			seen[k] = true
			want = append(want, k)
		}
	}
	sort.Float64s(want)
	got := make([]float64, 0, len(want))
	for it := tr.Min(); it.Valid(); it.Next() {
		got = append(got, it.Key())
	}
	if len(got) != len(want) {
		t.Fatalf("key count: got %d want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("order mismatch at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestCountsAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, order := range []int{3, 4, 16, 64} {
		tr := New(order)
		m := &model{}
		for i := 0; i < 800; i++ {
			k := float64(rng.Intn(100))
			tr.Insert(k, int32(i))
			m.insert(k, int32(i))
		}
		for probe := -1.0; probe <= 101; probe += 0.5 {
			if got, want := tr.CountGE(probe), m.countGE(probe); got != want {
				t.Fatalf("order %d CountGE(%v) = %d, want %d", order, probe, got, want)
			}
			if got, want := tr.CountGT(probe), m.countGT(probe); got != want {
				t.Fatalf("order %d CountGT(%v) = %d, want %d", order, probe, got, want)
			}
			if got, want := tr.CountLT(probe), tr.Len()-m.countGE(probe); got != want {
				t.Fatalf("order %d CountLT(%v) = %d, want %d", order, probe, got, want)
			}
			if got, want := tr.CountLE(probe), tr.Len()-m.countGT(probe); got != want {
				t.Fatalf("order %d CountLE(%v) = %d, want %d", order, probe, got, want)
			}
		}
	}
}

func TestSeek(t *testing.T) {
	tr := New(4)
	for _, k := range []float64{1, 3, 5, 7, 9} {
		tr.Insert(k, int32(k))
	}
	cases := []struct {
		seek float64
		key  float64
		ok   bool
	}{
		{0, 1, true}, {1, 1, true}, {2, 3, true}, {9, 9, true}, {9.5, 0, false},
	}
	for _, c := range cases {
		it := tr.Seek(c.seek)
		if it.Valid() != c.ok {
			t.Fatalf("Seek(%v).Valid = %v", c.seek, it.Valid())
		}
		if c.ok && it.Key() != c.key {
			t.Fatalf("Seek(%v).Key = %v, want %v", c.seek, it.Key(), c.key)
		}
	}
}

func TestAscendRange(t *testing.T) {
	tr := New(4)
	for i := 0; i < 20; i++ {
		tr.Insert(float64(i), int32(i))
	}
	var got []float64
	tr.AscendRange(5, 9, func(k float64, ids []int32) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 5 || got[0] != 5 || got[4] != 9 {
		t.Fatalf("AscendRange = %v", got)
	}
	// Early stop.
	n := 0
	tr.AscendRange(0, 19, func(k float64, ids []int32) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestDuplicatePostingsOrder(t *testing.T) {
	tr := New(3)
	for i := int32(0); i < 50; i++ {
		tr.Insert(7, i)
	}
	p := tr.Get(7)
	if len(p) != 50 {
		t.Fatalf("postings = %d", len(p))
	}
	for i, id := range p {
		if id != int32(i) {
			t.Fatalf("postings order broken at %d", i)
		}
	}
}

func TestFromPairs(t *testing.T) {
	tr := FromPairs([]float64{2, 1, 2}, []int32{10, 11, 12})
	if tr.Len() != 3 || tr.KeyCount() != 2 {
		t.Fatalf("Len=%d KeyCount=%d", tr.Len(), tr.KeyCount())
	}
}

func TestFromPairsMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromPairs([]float64{1}, nil)
}

func TestDepthGrows(t *testing.T) {
	tr := New(3)
	for i := 0; i < 1000; i++ {
		tr.Insert(float64(i), int32(i))
	}
	if tr.Depth() < 4 {
		t.Fatalf("Depth = %d, want >= 4 for order-3 tree with 1000 keys", tr.Depth())
	}
	// Totals must survive all the splits.
	if tr.Len() != 1000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.CountGE(0) != 1000 || tr.CountGE(999) != 1 || tr.CountGE(1000) != 0 {
		t.Fatal("counts wrong after deep splits")
	}
}

// Property: for random inserts, CountGE agrees with the brute-force model at
// every inserted key.
func TestQuickCountGE(t *testing.T) {
	f := func(raw []uint16) bool {
		tr := New(5)
		m := &model{}
		for i, r := range raw {
			k := float64(r % 500)
			tr.Insert(k, int32(i))
			m.insert(k, int32(i))
		}
		for _, r := range raw {
			k := float64(r % 500)
			if tr.CountGE(k) != m.countGE(k) {
				return false
			}
		}
		return tr.Len() == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	tr := NewDefault()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Insert(rng.Float64(), int32(i))
	}
}

func BenchmarkCountGE(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(24))
	tr := NewDefault()
	for i := 0; i < 100_000; i++ {
		tr.Insert(rng.Float64(), int32(i))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tr.CountGE(rng.Float64())
	}
}

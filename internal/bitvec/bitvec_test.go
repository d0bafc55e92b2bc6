package bitvec

import (
	"testing"
	"testing/quick"
)

func TestNewIsZero(t *testing.T) {
	v := New(130)
	if v.Len() != 130 {
		t.Fatalf("Len = %d, want 130", v.Len())
	}
	if v.Count() != 0 {
		t.Fatalf("Count = %d, want 0", v.Count())
	}
	if v.Any() {
		t.Fatal("Any on zero vector")
	}
}

func TestNewOnes(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129, 1000} {
		v := NewOnes(n)
		if v.Count() != n {
			t.Errorf("NewOnes(%d).Count = %d", n, v.Count())
		}
	}
}

func TestSetGetClear(t *testing.T) {
	v := New(200)
	idx := []int{0, 1, 63, 64, 65, 127, 128, 199}
	for _, i := range idx {
		v.Set(i)
	}
	for _, i := range idx {
		if !v.Get(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if v.Count() != len(idx) {
		t.Fatalf("Count = %d, want %d", v.Count(), len(idx))
	}
	for _, i := range idx {
		v.Clear(i)
	}
	if v.Any() {
		t.Fatal("bits remain after Clear")
	}
}

func TestSetBool(t *testing.T) {
	v := New(10)
	v.SetBool(3, true)
	v.SetBool(4, false)
	if !v.Get(3) || v.Get(4) {
		t.Fatal("SetBool wrong")
	}
	v.SetBool(3, false)
	if v.Get(3) {
		t.Fatal("SetBool(false) did not clear")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(5).Get(5)
}

func TestNegativeLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(-1)
}

func TestMismatchedAndPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(5).And(New(6))
}

func TestParseRoundTrip(t *testing.T) {
	s := "10111101110011110011"
	v := MustParse(s)
	if v.String() != s {
		t.Fatalf("round trip: got %s want %s", v.String(), s)
	}
	if v.Count() != 14 {
		t.Fatalf("Count = %d, want 14", v.Count())
	}
}

func TestParseRejectsJunk(t *testing.T) {
	if _, err := Parse("0102"); err == nil {
		t.Fatal("expected error")
	}
}

func TestBooleanOps(t *testing.T) {
	a := MustParse("110101")
	b := MustParse("011100")

	and := a.Clone().And(b)
	if and.String() != "010100" {
		t.Errorf("And = %s", and.String())
	}
	or := a.Clone().Or(b)
	if or.String() != "111101" {
		t.Errorf("Or = %s", or.String())
	}
	andNot := a.Clone().AndNot(b)
	if andNot.String() != "100001" {
		t.Errorf("AndNot = %s", andNot.String())
	}
	not := a.Clone().Not()
	if not.String() != "001010" {
		t.Errorf("Not = %s", not.String())
	}
}

func TestNotTrimsTail(t *testing.T) {
	// Not on a non-word-multiple length must not set bits past Len.
	v := New(70).Not()
	if v.Count() != 70 {
		t.Fatalf("Count = %d, want 70", v.Count())
	}
}

func TestForEachAndIndices(t *testing.T) {
	want := []int{5, 64, 65, 299}
	v := New(300)
	for _, i := range want {
		v.Set(i)
	}
	got := v.Indices()
	if len(got) != len(want) {
		t.Fatalf("Indices = %v", got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Indices = %v, want %v", got, want)
		}
	}
	// Early stop.
	n := 0
	v.ForEach(func(i int) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("ForEach early stop visited %d", n)
	}
}

func TestIntersectAll(t *testing.T) {
	a := MustParse("1110")
	b := MustParse("0110")
	c := MustParse("0111")
	got := IntersectAll(a, b, c)
	if got.String() != "0110" {
		t.Fatalf("IntersectAll = %s", got.String())
	}
	// Inputs untouched.
	if a.String() != "1110" {
		t.Fatal("IntersectAll mutated input")
	}
}

func TestIntersectAllEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	IntersectAll()
}

func TestCloneIndependence(t *testing.T) {
	a := MustParse("1010")
	b := a.Clone()
	b.Set(1)
	if a.Get(1) {
		t.Fatal("Clone shares storage")
	}
}

func TestCopyFrom(t *testing.T) {
	a := MustParse("1010")
	b := New(4)
	b.CopyFrom(a)
	if !b.Equal(a) {
		t.Fatal("CopyFrom mismatch")
	}
}

func TestEqual(t *testing.T) {
	if !MustParse("101").Equal(MustParse("101")) {
		t.Fatal("equal vectors not Equal")
	}
	if MustParse("101").Equal(MustParse("100")) {
		t.Fatal("different vectors Equal")
	}
	if MustParse("101").Equal(MustParse("1010")) {
		t.Fatal("different lengths Equal")
	}
}

func TestSetAllReset(t *testing.T) {
	v := New(77)
	v.SetAll()
	if v.Count() != 77 {
		t.Fatalf("SetAll Count = %d", v.Count())
	}
	v.Reset()
	if v.Any() {
		t.Fatal("Reset left bits")
	}
}

func TestSizeBytes(t *testing.T) {
	if got := New(65).SizeBytes(); got != 16 {
		t.Fatalf("SizeBytes = %d, want 16", got)
	}
	if got := New(64).SizeBytes(); got != 8 {
		t.Fatalf("SizeBytes = %d, want 8", got)
	}
}

// Property: De Morgan — Not(a And b) == Not(a) Or Not(b).
func TestQuickDeMorgan(t *testing.T) {
	f := func(bitsA, bitsB []bool) bool {
		n := len(bitsA)
		if len(bitsB) < n {
			n = len(bitsB)
		}
		a := FromBits(bitsA[:n])
		b := FromBits(bitsB[:n])
		lhs := a.Clone().And(b).Not()
		rhs := a.Clone().Not().Or(b.Clone().Not())
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Count(a) + Count(b) == Count(a|b) + Count(a&b).
func TestQuickInclusionExclusion(t *testing.T) {
	f := func(bitsA, bitsB []bool) bool {
		n := len(bitsA)
		if len(bitsB) < n {
			n = len(bitsB)
		}
		a := FromBits(bitsA[:n])
		b := FromBits(bitsB[:n])
		return a.Count()+b.Count() ==
			a.Clone().Or(b).Count()+a.Clone().And(b).Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: String round-trips through Parse.
func TestQuickStringParse(t *testing.T) {
	f := func(bits []bool) bool {
		v := FromBits(bits)
		w, err := Parse(v.String())
		return err == nil && v.Equal(w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAnd4096(b *testing.B) {
	x := NewOnes(4096)
	y := NewOnes(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.And(y)
	}
}

func BenchmarkCount4096(b *testing.B) {
	x := NewOnes(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Count()
	}
}

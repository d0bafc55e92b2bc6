package core

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bitmapidx"
	"repro/internal/gen"
)

// TestPreparedSharing drives one holder the way an epoch and a shard do at
// once: goroutines Ensure mixed needs and query what they get, while one
// installs an artifact made elsewhere. Every artifact nobody installed is built exactly once (all
// readers see one pointer), a *Pre handed out never changes under its reader,
// and Builds counts the one serving-index build — not the BIG bitmap, not the
// install, not the load that follows. Under -race this is the holder's
// data-race test.
func TestPreparedSharing(t *testing.T) {
	cfg := gen.Default(gen.IND, 11)
	cfg.N = 1500
	ds := gen.Synthetic(cfg)
	want := map[Algorithm]Result{}
	for _, alg := range []Algorithm{AlgUBB, AlgBIG, AlgIBIG} {
		want[alg], _ = Run(alg, ds, 8, nil)
	}
	installed := bitmapidx.Build(ds, bitmapidx.Options{})

	p := NewPrepared(ds, nil)
	algs := []Algorithm{AlgUBB, AlgBIG, AlgIBIG}
	needs := make([]Need, len(algs))
	for i, alg := range algs {
		needs[i] = NeedFor(alg)
	}
	const readers = 12
	got := make([]*Pre, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pre := p.Ensure(needs[g%len(needs)])
			held := *pre
			alg := algs[g%len(algs)]
			if res, _ := Run(alg, ds, 8, pre); !reflect.DeepEqual(res, want[alg]) {
				t.Errorf("reader %d: %v answer differs from a cold run", g, alg)
			}
			if !reflect.DeepEqual(*pre, held) {
				t.Errorf("reader %d: the set changed under its reader", g)
			}
			got[g] = pre
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.Install(Pre{Bitmap: installed})
	}()
	wg.Wait()

	final := p.Ensure(NeedQueue | NeedBitmap | NeedBinned)
	if final.Bitmap != installed {
		t.Error("an installed artifact was rebuilt")
	}
	for g, pre := range got {
		n := needs[g%len(needs)]
		if n&NeedQueue != 0 && pre.Queue != final.Queue {
			t.Errorf("reader %d: a second queue was built", g)
		}
		if n&NeedBinned != 0 && pre.Binned != final.Binned {
			t.Errorf("reader %d: a second serving index was built", g)
		}
	}
	if n := p.Builds(); n != 1 {
		t.Errorf("Builds = %d after one serving-index build", n)
	}

	// A loaded index replaces the built one and is not a build.
	var buf bytes.Buffer
	if err := p.SaveServing(&buf); err != nil {
		t.Fatal(err)
	}
	if patched, err := p.LoadServing(&buf); err != nil || patched != 0 {
		t.Fatalf("LoadServing: patched %d, err %v", patched, err)
	}
	if p.Built().Binned == final.Binned || p.Builds() != 1 {
		t.Errorf("after LoadServing: same index %v, Builds %d", p.Built().Binned == final.Binned, p.Builds())
	}
}

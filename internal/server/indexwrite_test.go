package server_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/server"
	"repro/tkd"
)

// A load serves first and writes its index file afterwards, on a goroutine
// the entry owns. These tests hold that write between its temporary file and
// the rename, and learn from the server when something starts waiting for it
// (HoldIndexWrites) — so every ordering below is an event, never a sleep.

// holdFirstWrite holds the first index write s makes until release is
// called; held closes once it is being held, and joined receives once each
// time a caller starts waiting for a write in flight. release may be called
// more than once — deferred, it frees a write a failed test left held.
func holdFirstWrite(s *server.Server) (held chan struct{}, joined chan struct{}, release func()) {
	held, joined, free := make(chan struct{}), make(chan struct{}, 16), make(chan struct{})
	var hold, freed sync.Once
	s.HoldIndexWrites(func() {
		hold.Do(func() {
			close(held)
			<-free
		})
	}, func() {
		select {
		case joined <- struct{}{}:
		default:
		}
	})
	return held, joined, func() { freed.Do(func() { close(free) }) }
}

// status sends one request and returns its status code, -1 when it could not
// be sent: usable off the test goroutine.
func status(method, url string, body any) int {
	var b []byte
	if body != nil {
		b, _ = json.Marshal(body)
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(b))
	if err != nil {
		return -1
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return -1
	}
	resp.Body.Close()
	return resp.StatusCode
}

// bootBuilds registers the CSV at path on a fresh server over ixdir and
// reports how many indexes that built, checking the answers against ref.
func bootBuilds(t *testing.T, ixdir, path string, ref *tkd.Dataset) int64 {
	t.Helper()
	s := server.New(server.Config{IndexDir: ixdir})
	defer s.Close()
	ds, err := loadPublicCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddDataset("big", ds); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	assertAnswers(t, "boot over "+ixdir, ts.URL, ref)
	if errs := sumMetric(t, getBody(t, ts.URL+"/metrics"), "tkd_index_cache_errors_total"); errs != 0 {
		t.Fatalf("boot over %s: %d index cache errors", ixdir, errs)
	}
	return ds.IndexBuilds()
}

// TestIndexWriteJoinedByShutdownEvictAndReload: a cold load answers queries
// before its index file is on disk, and Shutdown, an evict and a reload each
// wait for that write — none returns before it lands, nothing is in flight
// after, the reload of the unchanged file loads the file warm, and the next
// boot does too.
func TestIndexWriteJoinedByShutdownEvictAndReload(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "d.csv")
	ref := tkd.GenerateIND(500, 4, 20, 0.2, 11)
	writeCSV(t, ref, csv)
	for _, tc := range []struct {
		name string
		stop func(s *server.Server, url string) int // the status an HTTP call answered, 200 for Shutdown
	}{
		{"shutdown", func(s *server.Server, _ string) int { s.Shutdown(); return http.StatusOK }},
		{"evict", func(_ *server.Server, url string) int { return status(http.MethodDelete, url+"/v1/datasets/big", nil) }},
		{"reload", func(_ *server.Server, url string) int {
			return status(http.MethodPost, url+"/v1/datasets/big/reload", nil)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ixdir := filepath.Join(t.TempDir(), "ix")
			s := server.New(server.Config{IndexDir: ixdir})
			defer s.Close()
			held, joined, release := holdFirstWrite(s)
			defer release()
			if err := s.LoadCSVFile("big", csv, false); err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s)
			defer ts.Close()
			<-held
			assertAnswers(t, "while the index write is held", ts.URL, ref)
			if _, err := os.Stat(filepath.Join(ixdir, "big.tkdix")); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("the index file exists before its write was released (err %v)", err)
			}
			returned := make(chan int, 1)
			go func() { returned <- tc.stop(s, ts.URL) }()
			select {
			case <-joined:
			case code := <-returned:
				t.Fatalf("%s returned %d without waiting for the index write", tc.name, code)
			}
			release()
			if code := <-returned; code != http.StatusOK {
				t.Fatalf("%s answered %d", tc.name, code)
			}
			if n := s.IndexWritesInFlight(); n != 0 {
				t.Fatalf("%d index writes still in flight after %s returned", n, tc.name)
			}
			if builds := sumMetric(t, getBody(t, ts.URL+"/metrics"), "tkd_index_builds_total"); builds != 1 {
				t.Fatalf("%d index builds by the time %s returned, want the boot's one", builds, tc.name)
			}
			if builds := bootBuilds(t, ixdir, csv, ref); builds != 0 {
				t.Fatalf("the boot after %s built %d indexes, want a warm load", tc.name, builds)
			}
		})
	}
}

// TestIndexWriteOfEvictedEntryNeverLandsLast: an evict and a re-register of
// the name with other rows, both while the evicted entry's index write is
// held, end with the re-registered rows' index on disk — never the evicted
// entry's bytes: the next boot over the new rows is warm.
func TestIndexWriteOfEvictedEntryNeverLandsLast(t *testing.T) {
	dir := t.TempDir()
	oldCSV, newCSV := filepath.Join(dir, "old.csv"), filepath.Join(dir, "new.csv")
	oldRows, newRows := tkd.GenerateIND(400, 3, 20, 0.2, 21), tkd.GenerateIND(450, 3, 20, 0.2, 22)
	writeCSV(t, oldRows, oldCSV)
	writeCSV(t, newRows, newCSV)
	ixdir := filepath.Join(dir, "ix")

	s := server.New(server.Config{IndexDir: ixdir})
	defer s.Close()
	held, joined, release := holdFirstWrite(s)
	defer release()
	if err := s.LoadCSVFile("big", oldCSV, false); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	<-held

	// The evict unregisters the name before it waits for the write, and the
	// re-register waits for it before it reads the index dir.
	evicted := make(chan int, 1)
	go func() { evicted <- status(http.MethodDelete, ts.URL+"/v1/datasets/big", nil) }()
	select {
	case <-joined:
	case code := <-evicted:
		t.Fatalf("evict answered %d without waiting for the index write", code)
	}
	registered := make(chan int, 1)
	go func() {
		registered <- status(http.MethodPost, ts.URL+"/v1/datasets", server.RegisterRequest{Name: "big", Path: newCSV})
	}()
	select {
	case <-joined:
	case code := <-registered:
		t.Fatalf("re-register answered %d without waiting for the index write", code)
	}
	release()
	if code := <-evicted; code != http.StatusOK {
		t.Fatalf("evict answered %d", code)
	}
	if code := <-registered; code != http.StatusCreated {
		t.Fatalf("re-register answered %d", code)
	}
	assertAnswers(t, "re-registered", ts.URL, newRows)
	ts.Close()
	s.Shutdown()

	if builds := bootBuilds(t, ixdir, newCSV, newRows); builds != 0 {
		t.Fatalf("the boot over the re-registered rows built %d indexes: the file on disk is not theirs", builds)
	}
}

// TestIndexWriteOfReplacedEntryIsDropped: a reload still warming when its
// dataset is evicted and the name registered again with other rows queues its
// index write behind the new entry's. That write is dropped — a newer entry
// owns the name — so the file on disk stays the new entry's, and the next
// boot over the new rows is warm.
func TestIndexWriteOfReplacedEntryIsDropped(t *testing.T) {
	dir := t.TempDir()
	oldCSV, newCSV := filepath.Join(dir, "old.csv"), filepath.Join(dir, "new.csv")
	oldRows, newRows := tkd.GenerateIND(400, 3, 20, 0.2, 23), tkd.GenerateIND(450, 3, 20, 0.2, 24)
	writeCSV(t, oldRows, oldCSV)
	writeCSV(t, newRows, newCSV)
	ixdir := filepath.Join(dir, "ix")

	s := server.New(server.Config{IndexDir: ixdir})
	defer s.Close()
	// The boot's write is held at its rename; the first caller to wait for a
	// write — the reload — is stalled there until the gate opens.
	held, free, stalled, gate := make(chan struct{}), make(chan struct{}), make(chan struct{}), make(chan struct{})
	joined := make(chan struct{}, 16)
	var hold, stall, freed, opened sync.Once
	release := func() { freed.Do(func() { close(free) }) }
	open := func() { opened.Do(func() { close(gate) }) }
	defer open()
	defer release()
	s.HoldIndexWrites(func() {
		hold.Do(func() {
			close(held)
			<-free
		})
	}, func() {
		first := false
		stall.Do(func() { first = true })
		if first {
			close(stalled)
			<-gate
			return
		}
		select {
		case joined <- struct{}{}:
		default:
		}
	})
	if err := s.LoadCSVFile("big", oldCSV, false); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	<-held

	reloaded := make(chan int, 1)
	go func() { reloaded <- status(http.MethodPost, ts.URL+"/v1/datasets/big/reload", nil) }()
	select {
	case <-stalled:
	case code := <-reloaded:
		t.Fatalf("reload answered %d without waiting for the index write", code)
	}
	// The evict unregisters the name, then waits for the reload.
	evicted := make(chan int, 1)
	go func() { evicted <- status(http.MethodDelete, ts.URL+"/v1/datasets/big", nil) }()
	waitUntil(t, "the evict to unregister the name", func() bool {
		return status(http.MethodGet, ts.URL+"/v1/datasets/big", nil) == http.StatusNotFound
	})
	registered := make(chan int, 1)
	go func() {
		registered <- status(http.MethodPost, ts.URL+"/v1/datasets", server.RegisterRequest{Name: "big", Path: newCSV})
	}()
	select {
	case <-joined:
	case code := <-registered:
		t.Fatalf("re-register answered %d without waiting for the index write", code)
	}
	release()
	if code := <-registered; code != http.StatusCreated {
		t.Fatalf("re-register answered %d", code)
	}
	// The new entry's write is queued; the reload now warms the old rows over
	// the new entry's file, rebuilds, and queues its write behind it.
	open()
	if code := <-reloaded; code != http.StatusOK {
		t.Fatalf("reload answered %d", code)
	}
	if code := <-evicted; code != http.StatusOK {
		t.Fatalf("evict answered %d", code)
	}
	assertAnswers(t, "re-registered", ts.URL, newRows)
	ts.Close()
	s.Shutdown()

	if builds := bootBuilds(t, ixdir, newCSV, newRows); builds != 0 {
		t.Fatalf("the boot over the re-registered rows built %d indexes: the replaced entry's write landed last", builds)
	}
}

// TestIndexWriteCrashMidWrite: a process that dies while a load's index file
// is being written leaves no file under the dataset's name — a temporary one,
// which no boot reads — and the next boot over that directory rebuilds and
// answers correctly; a Close mid-write instead waits for the write, and the
// file it leaves verifies: the next boot over it is warm and answers the same.
func TestIndexWriteCrashMidWrite(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "d.csv")
	ref := tkd.GenerateIND(600, 4, 25, 0.2, 31)
	writeCSV(t, ref, csv)
	ixdir := filepath.Join(dir, "ix")

	s := server.New(server.Config{IndexDir: ixdir})
	held, joined, release := holdFirstWrite(s)
	defer release()
	if err := s.LoadCSVFile("big", csv, false); err != nil {
		t.Fatal(err)
	}
	<-held
	// What a kill at this instant leaves on disk.
	crash := filepath.Join(dir, "crash")
	if err := os.MkdirAll(crash, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(ixdir)
	if err != nil {
		t.Fatal(err)
	}
	temp := 0
	for _, e := range entries {
		if e.Name() == "big.tkdix" {
			t.Fatal("the index file exists before its write was released")
		}
		if strings.HasPrefix(e.Name(), ".tkdix-tmp-") {
			temp++
		}
		b, err := os.ReadFile(filepath.Join(ixdir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crash, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if temp != 1 {
		t.Fatalf("mid-write the index dir holds %d temporary files, want 1", temp)
	}

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-joined:
	case <-closed:
		t.Fatal("Close returned without waiting for the index write")
	}
	release()
	<-closed
	if n := s.IndexWritesInFlight(); n != 0 {
		t.Fatalf("%d index writes still in flight after Close returned", n)
	}

	if builds := bootBuilds(t, crash, csv, ref); builds != 1 {
		t.Fatalf("the boot over the crash image built %d indexes, want 1", builds)
	}
	if builds := bootBuilds(t, ixdir, csv, ref); builds != 0 {
		t.Fatalf("the boot after Close built %d indexes, want a warm load", builds)
	}
}

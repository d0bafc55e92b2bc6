package server

// WaitIndexWrites returns once no index file is being written: the write a
// load queues after the dataset serves, or a checkpoint.
func (s *Server) WaitIndexWrites() { s.writes.wait() }

// IndexWritesInFlight counts the dataset names with an index write queued or
// running.
func (s *Server) IndexWritesInFlight() int {
	s.writes.mu.Lock()
	defer s.writes.mu.Unlock()
	return len(s.writes.last)
}

// ShardHedges counts the hedged scatter calls of a sharded resident dataset.
// No /metrics family carries it (an operator reads the `hedged` attribute of
// attempt spans), so TestChaosSoak reads the counter here.
func (s *Server) ShardHedges(name string) int64 {
	e, ok := s.reg.get(name)
	if !ok {
		return 0
	}
	return e.ds.Metrics().Hedges
}

// HoldIndexWrites makes every index write call hold between writing its
// temporary file and renaming it over the dataset's file, and joined run
// whenever something — a Close, an evict, a load reading the files — starts
// waiting for a write in flight. Set them before the first load.
func (s *Server) HoldIndexWrites(hold, joined func()) {
	s.ixc.beforeRename = hold
	s.writes.joining = joined
}

// HoldSlots takes every admission slot, as running queries holding the whole
// machine would, and returns the function that hands them back. Queries
// submitted meanwhile wait in the admission line.
func (s *Server) HoldSlots() (release func()) {
	n := s.adm.enter(s.adm.capacity, 0).wait()
	return func() { s.adm.release(n) }
}

// Waiting counts the requests of a resident dataset that have been
// dispatched and wait for their group's admission grant.
func (s *Server) Waiting(name string) int {
	e, ok := s.reg.get(name)
	if !ok {
		return 0
	}
	e.sch.mu.Lock()
	defer e.sch.mu.Unlock()
	n := 0
	for _, g := range e.sch.pending {
		n += len(g.reqs)
	}
	return n
}

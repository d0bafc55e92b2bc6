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

// HoldIndexWrites makes every index write call hold between writing its
// temporary file and renaming it over the dataset's file, and joined run
// whenever something — a Close, an evict, a load reading the files — starts
// waiting for a write in flight. Set them before the first load.
func (s *Server) HoldIndexWrites(hold, joined func()) {
	s.ixc.beforeRename = hold
	s.writes.joining = joined
}

package trace

// Len reports how many traces are retained.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.byID)
		sh.mu.Unlock()
	}
	return n
}

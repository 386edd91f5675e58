package index

// Tombstones counts tombstoned-but-unreclaimed chunks across all parts.
func (s *Segmented) Tombstones() int {
	n := 0
	for _, part := range s.parts() {
		n += part.Tombstones()
	}
	return n
}

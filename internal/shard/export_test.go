package shard

import "uniask/internal/index"

// Shard exposes one shard's in-process store, or nil when the shard is
// remote.
func (s *Sharded) Shard(i int) *index.Segmented {
	if l, ok := s.shards[i].(*Local); ok {
		return l.Segmented
	}
	return nil
}

// Tombstones counts tombstoned chunks across shards.
func (s *Sharded) Tombstones() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Stats().Tombstones
	}
	return n
}

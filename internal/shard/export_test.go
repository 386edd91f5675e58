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

package index

// Live updates: the knowledge base is edited daily and the ingestion
// service polls for changes every 15 minutes (§3), so the index must
// support deleting and replacing documents without a rebuild. Deletions are
// tombstones: the chunk stays in the posting lists and the ANN graph but is
// filtered out of every search result; its external id is freed for
// re-insertion. Compact rebuilds reclaim the space. Tombstoning does not
// touch the filter bitset cache — deletion is checked separately on the
// query path — but it is recorded in the delete journal so query-result
// caches evict the entries that surfaced the chunk.

// Delete tombstones a chunk by external id. It reports whether the id was
// present.
func (ix *Index) Delete(chunkID string) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.deleteLocked(chunkID)
}

// deleteLocked is Delete with ix.mu already held for writing.
func (ix *Index) deleteLocked(chunkID string) bool {
	ord, ok := ix.byID[chunkID]
	if !ok {
		return false
	}
	delete(ix.byID, chunkID)
	if ix.deleted == nil {
		ix.deleted = make(map[int32]bool)
	}
	ix.deleted[ord] = true
	parent := ix.docs[ord].ParentID
	live := ix.byParent[parent][:0]
	for _, o := range ix.byParent[parent] {
		if o != ord {
			live = append(live, o)
		}
	}
	if len(live) == 0 {
		delete(ix.byParent, parent)
	} else {
		ix.byParent[parent] = live
	}
	// A tombstone does not move the stats key — BM25 statistics still count
	// the chunk — but the delete journal lets caches evict exactly the
	// entries that surfaced it.
	ix.journal.Record(chunkID)
	return true
}

// DeleteParent tombstones every chunk of a KB document and returns how many
// chunks were removed.
func (ix *Index) DeleteParent(parentID string) int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ords := append([]int32(nil), ix.byParent[parentID]...)
	n := 0
	for _, ord := range ords {
		if ix.deleteLocked(ix.docs[ord].ID) {
			n++
		}
	}
	return n
}

// ParentChunkIDs returns the external ids of the live chunks of a KB
// document. Wrapping stores (the segmented store, the shard facade) use it
// to learn which chunk ids a DeleteParent will remove, so their own delete
// journals can name them.
func (ix *Index) ParentChunkIDs(parentID string) []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ords := ix.byParent[parentID]
	if len(ords) == 0 {
		return nil
	}
	ids := make([]string, 0, len(ords))
	for _, ord := range ords {
		ids = append(ids, ix.docs[ord].ID)
	}
	return ids
}

// HasParent reports whether any live chunk of the KB document remains.
func (ix *Index) HasParent(parentID string) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.byParent[parentID]) > 0
}

// HasParents implements Writer: present[i] reports whether any live chunk of
// KB document ids[i] remains. A local index cannot fail to answer.
func (ix *Index) HasParents(ids []string) (present []bool, err error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	present = make([]bool, len(ids))
	for i, id := range ids {
		present[i] = len(ix.byParent[id]) > 0
	}
	return present, nil
}

// LiveLen reports the number of live (non-tombstoned) chunks.
func (ix *Index) LiveLen() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.byID)
}

// Tombstones reports how many chunks are tombstoned (compaction metric).
func (ix *Index) Tombstones() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.deleted)
}

// sizes reports the live and tombstoned chunk counts under one lock
// acquisition; together they are Len.
func (ix *Index) sizes() (live, tombstones int) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.byID), len(ix.deleted)
}

// tombstonedIDs returns the external ids of the tombstoned chunks, in no
// particular order.
func (ix *Index) tombstonedIDs() []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ids := make([]string, 0, len(ix.deleted))
	for ord := range ix.deleted {
		ids = append(ids, ix.docs[ord].ID)
	}
	return ids
}

// liveAndDead splits the index, under one lock acquisition, into its live
// documents in insertion order (LiveDocs) and the ids of its tombstoned
// chunks — what a merge re-adds and what it drops.
func (ix *Index) liveAndDead() (live []Document, dead []string) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	live = make([]Document, 0, len(ix.byID))
	for ord, doc := range ix.docs {
		if ix.isDeleted(int32(ord)) {
			dead = append(dead, doc.ID)
		} else {
			live = append(live, ix.doc(int32(ord)))
		}
	}
	return live, dead
}

// isDeleted reports whether an ordinal is tombstoned; the caller must hold
// ix.mu.
func (ix *Index) isDeleted(ord int32) bool {
	return ix.deleted != nil && ix.deleted[ord]
}

// Compact rebuilds the index without tombstoned chunks, reclaiming posting
// and graph space; the live vectors go into the new graphs verbatim. It
// returns the rebuilt index; the receiver is unchanged.
func (ix *Index) Compact() (*Index, error) {
	out := New(ix.cfg)
	if err := out.addBulk(ix.LiveDocs(), true); err != nil {
		return nil, err
	}
	out.releaseBuildState()
	return out, nil
}

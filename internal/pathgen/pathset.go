package pathgen

import "fubar/internal/graph"

// PathSet is the ordered, de-duplicated set of candidate paths for one
// aggregate (§2.4: the set starts with the lowest-delay path and grows by
// three alternatives per iteration, typically ending at ten to fifteen).
// Membership is a linear scan: at that size it beats hashing a key built
// from the edge list, and it allocates nothing.
type PathSet struct {
	paths []graph.Path
	limit int
}

// NewPathSet returns an empty set. limit bounds the number of stored
// paths (0 = unbounded); once full, Add refuses new paths. The set's first
// cap(room) paths are stored in room, so sets carved from one shared array
// fill without an allocation each; room must end at its capacity, where the
// next set's begins, and a set that outgrows it moves to an array of its
// own. nil room stores every path in the set's own array.
func NewPathSet(limit int, room []graph.Path) PathSet {
	return PathSet{paths: room[:0], limit: limit}
}

// Reset empties the set under a new limit, keeping its storage: the set an
// optimizer's next run fills again. The dropped paths are cleared, so their
// edges are not kept alive by the storage.
func (s *PathSet) Reset(limit int) {
	clear(s.paths)
	s.paths = s.paths[:0]
	s.limit = limit
}

// Len reports the number of stored paths.
func (s *PathSet) Len() int { return len(s.paths) }

// Paths returns the stored paths in insertion order. The slice is shared;
// callers must not modify it.
func (s *PathSet) Paths() []graph.Path { return s.paths }

// Path returns the i-th stored path.
func (s *PathSet) Path(i int) graph.Path { return s.paths[i] }

// Contains reports whether an equal path is already stored.
func (s *PathSet) Contains(p graph.Path) bool { return s.IndexOf(p) >= 0 }

// IndexOf returns the position of an equal stored path, or -1.
func (s *PathSet) IndexOf(p graph.Path) int {
	for i, q := range s.paths {
		if q.Equal(p) {
			return i
		}
	}
	return -1
}

// Add inserts the path if it is not already present and the limit allows,
// reporting whether it was inserted.
func (s *PathSet) Add(p graph.Path) bool {
	if s.Contains(p) || (s.limit > 0 && len(s.paths) >= s.limit) {
		return false
	}
	s.paths = append(s.paths, p)
	return true
}

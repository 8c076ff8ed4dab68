package storage

// Segments returns the sealed segment paths, oldest first.
func (s *Store) Segments() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.sealed...)
}

// parseLine, decodeRecord and parseCanonical decode a line or payload on
// its own, as the first line of a walk.
func parseLine(line []byte, rec *Record) bool { return new(lineCache).parseLine(line, rec) }

func decodeRecord(payload []byte, r *Record) error { return new(lineCache).decodeRecord(payload, r) }

func parseCanonical(p []byte) (Record, bool) { return new(lineCache).parseCanonical(p) }

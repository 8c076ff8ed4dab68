package storage

// Segments returns the sealed segment paths, oldest first.
func (s *Store) Segments() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.sealed...)
}

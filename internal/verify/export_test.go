package verify

// Threshold returns the active accept threshold.
func (e *Engine) Threshold() float64 { return e.cfg.Threshold }

// Users returns the enrolled-user count.
func (e *Engine) Users() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.users)
}

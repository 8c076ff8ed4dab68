package watch

// Alerts returns the live alerts (sorted by rule then subject) followed
// by the resolved history, oldest first.
func (m *Monitor) Alerts() []Alert {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.alertsLocked()
}

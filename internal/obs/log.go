package obs

import (
	"io"
	"log/slog"
	"os"
)

// LogConfig is the shared structured-logging handler configuration every
// binary uses, so log shape (logfmt-style text at info level and above,
// component tagging) is decided once per process instead of per package.
type LogConfig struct {
	// W receives log output; nil means os.Stderr.
	W io.Writer
	// Component tags every record with component=<value> when non-empty.
	Component string
}

// NewLogger builds a slog.Logger from the shared config.
func NewLogger(cfg LogConfig) *slog.Logger {
	w := cfg.W
	if w == nil {
		w = os.Stderr
	}
	l := slog.New(slog.NewTextHandler(w, nil))
	if cfg.Component != "" {
		l = l.With("component", cfg.Component)
	}
	return l
}

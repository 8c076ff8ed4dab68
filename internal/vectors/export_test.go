package vectors

import "repro/internal/webaudio"

// SetEngine pins the DSP engine this runner renders under (by default new
// contexts follow webaudio.DefaultEngine), so a test can compare the two
// engines pass by pass without flipping the process-wide default.
func (r *Runner) SetEngine(e webaudio.Engine) { r.engine, r.engineSet = e, true }

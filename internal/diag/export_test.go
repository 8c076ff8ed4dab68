package diag

import (
	"os"
	"os/exec"
	"testing"
)

// PprofTop runs `go tool pprof -top`, the reader fpdiag uses, over a
// bundled heap profile and returns its report ranked by sampleIndex; the
// test fails when pprof cannot read the profile. alloc_space counts every
// sampled allocation since the process started, so a profile with any
// samples at all shows rows under it.
func PprofTop(t *testing.T, profile, sampleIndex string) string {
	t.Helper()
	cmd := exec.Command("go", "tool", "pprof", "-top", "-sample_index="+sampleIndex, profile)
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go tool pprof -top %s: %v\n%s", profile, err, out)
	}
	return string(out)
}

package webaudio

import (
	"math"
	"strings"
	"testing"
)

// auditGraph builds an oscillator → compressor → gain → destination chain
// on a fresh context with the given engine.
func auditGraph(e Engine) *Context {
	c := NewContext(44100, DefaultTraits())
	c.SetEngine(e)
	osc := c.NewOscillator(Triangle, 10000)
	comp := c.NewDynamicsCompressor()
	g := c.NewGain(0.5)
	Connect(osc, comp)
	Connect(comp, g)
	Connect(g, c.Destination())
	osc.Start(0)
	return c
}

func TestLockstepCompareAgreesOnHealthyGraph(t *testing.T) {
	got := auditGraph(EngineBlock)
	want := auditGraph(EngineReference)
	div, err := LockstepCompare(got, want, 24)
	if err != nil {
		t.Fatal(err)
	}
	if div != nil {
		t.Fatalf("healthy engines diverged: %v", div)
	}
}

func TestLockstepCompareCatchesInjectedFault(t *testing.T) {
	SetBlockFault("gain", 17, 1<<19)
	defer SetBlockFault("", 0, 0)

	got := auditGraph(EngineBlock)
	want := auditGraph(EngineReference)
	div, err := LockstepCompare(got, want, 8)
	if err != nil {
		t.Fatal(err)
	}
	if div == nil {
		t.Fatal("injected block fault not detected")
	}
	if div.Op != "gain" {
		t.Fatalf("offending op = %q, want gain", div.Op)
	}
	if div.Sample != 17 {
		t.Fatalf("sample = %d, want 17", div.Sample)
	}
	if div.Quantum != 0 {
		t.Fatalf("quantum = %d, want 0 (fault applies every quantum)", div.Quantum)
	}
	if div.GotBits == div.WantBits {
		t.Fatal("divergence with equal bits")
	}
	if math.Float32bits(math.Float32frombits(div.GotBits))^div.WantBits != 1<<19 {
		t.Fatalf("bit pattern: got 0x%08x want 0x%08x", div.GotBits, div.WantBits)
	}
	if s := div.String(); !strings.Contains(s, "gain") || !strings.Contains(s, "sample 17") {
		t.Fatalf("String() = %q", s)
	}
}

func TestBlockFaultOnlyHitsBlockEngine(t *testing.T) {
	SetBlockFault("gain", 0, 1<<20)
	defer SetBlockFault("", 0, 0)
	ref := auditGraph(EngineReference)
	ref2 := auditGraph(EngineReference)
	div, err := LockstepCompare(ref, ref2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if div != nil {
		t.Fatalf("reference engine affected by block fault: %v", div)
	}
}

package webaudio

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
)

const testRate = 44100

func defaultCtx() *Context { return NewContext(testRate, DefaultTraits()) }

// renderTone renders seconds of a started oscillator of the given type/freq
// directly into the destination.
func renderTone(t *testing.T, traits Traits, typ OscillatorType, freq float64, frames int) []float32 {
	t.Helper()
	ctx := NewContext(testRate, traits)
	osc := ctx.NewOscillator(typ, freq)
	Connect(osc, ctx.Destination())
	osc.Start(0)
	buf, err := ctx.RenderFrames(frames)
	if err != nil {
		t.Fatalf("render: %v", err)
	}
	return buf
}

func TestRenderFramesLength(t *testing.T) {
	for _, n := range []int{1, 127, 128, 129, 1000, 4096} {
		buf := renderTone(t, DefaultTraits(), Sine, 440, n)
		if len(buf) != n {
			t.Errorf("RenderFrames(%d) returned %d frames", n, len(buf))
		}
	}
	ctx := defaultCtx()
	if _, err := ctx.RenderFrames(0); err == nil {
		t.Error("RenderFrames(0) should error")
	}
}

func TestOscillatorSineShape(t *testing.T) {
	buf := renderTone(t, DefaultTraits(), Sine, 441, 4410) // 44.1 kHz / 441 Hz = 100 samples/period
	// Values bounded by 1.
	for i, v := range buf {
		if v > 1.0001 || v < -1.0001 {
			t.Fatalf("sample %d = %g out of [-1,1]", i, v)
		}
	}
	// Peak magnitude near 1 somewhere in the first period.
	var peak float32
	for _, v := range buf[:100] {
		if a := float32(math.Abs(float64(v))); a > peak {
			peak = a
		}
	}
	if peak < 0.95 {
		t.Errorf("sine peak %g, want ≈ 1", peak)
	}
	// Periodicity: one period is 100 samples.
	for i := 0; i < 100; i++ {
		if math.Abs(float64(buf[i]-buf[i+100])) > 1e-3 {
			t.Fatalf("sine not periodic at %d: %g vs %g", i, buf[i], buf[i+100])
		}
	}
}

func TestOscillatorNotStartedIsSilent(t *testing.T) {
	ctx := defaultCtx()
	osc := ctx.NewOscillator(Triangle, 10000)
	Connect(osc, ctx.Destination())
	// No Start() call.
	buf, err := ctx.RenderFrames(512)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range buf {
		if v != 0 {
			t.Fatalf("unstarted oscillator produced %g at %d", v, i)
		}
	}
}

func TestOscillatorStartStopWindow(t *testing.T) {
	ctx := defaultCtx()
	osc := ctx.NewOscillator(Sine, 1000)
	Connect(osc, ctx.Destination())
	osc.Start(0.01)
	osc.Stop(0.02)
	buf, err := ctx.RenderFrames(testRate / 10)
	if err != nil {
		t.Fatal(err)
	}
	startF := int(0.01 * testRate)
	stopF := int(0.02 * testRate)
	for i := 0; i < startF-1; i++ {
		if buf[i] != 0 {
			t.Fatalf("sound before start at %d", i)
		}
	}
	var energy float64
	for i := startF; i < stopF; i++ {
		energy += float64(buf[i]) * float64(buf[i])
	}
	if energy < 1 {
		t.Errorf("no energy inside start/stop window: %g", energy)
	}
	for i := stopF + 1; i < len(buf); i++ {
		if buf[i] != 0 {
			t.Fatalf("sound after stop at %d", i)
		}
	}
}

// TestDeterministicRendering: same traits ⇒ bit-identical buffers. This is
// the property that makes the DC vector perfectly stable in the paper.
func TestDeterministicRendering(t *testing.T) {
	for _, typ := range []OscillatorType{Sine, Square, Sawtooth, Triangle} {
		a := renderTone(t, DefaultTraits(), typ, 10000, 2048)
		b := renderTone(t, DefaultTraits(), typ, 10000, 2048)
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				t.Fatalf("%v: nondeterministic at sample %d", typ, i)
			}
		}
	}
}

// TestKernelChangesBuffer: different math kernels ⇒ different rendered
// buffers. This is the fingerprinting premise end-to-end.
func TestKernelChangesBuffer(t *testing.T) {
	base := DefaultTraits()
	for _, k := range []mathx.Kernel{mathx.Poly7, mathx.Lut4096, mathx.Fdlib} {
		tr := base
		tr.Kernel = k
		a := renderTone(t, base, Triangle, 10000, 4096)
		b := renderTone(t, tr, Triangle, 10000, 4096)
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("kernel %s rendered identically to libm", k.Name())
		}
	}
}

func TestOscillatorTypesDiffer(t *testing.T) {
	bufs := map[OscillatorType][]float32{}
	for _, typ := range []OscillatorType{Sine, Square, Sawtooth, Triangle} {
		bufs[typ] = renderTone(t, DefaultTraits(), typ, 440, 2048)
	}
	types := []OscillatorType{Sine, Square, Sawtooth, Triangle}
	for i := 0; i < len(types); i++ {
		for j := i + 1; j < len(types); j++ {
			a, b := bufs[types[i]], bufs[types[j]]
			var diff float64
			for k := range a {
				diff += math.Abs(float64(a[k] - b[k]))
			}
			if diff < 1 {
				t.Errorf("%v and %v render nearly identically (Σ|Δ| = %g)", types[i], types[j], diff)
			}
		}
	}
}

func TestCustomPeriodicWave(t *testing.T) {
	ctx := defaultCtx()
	osc := ctx.NewOscillator(Custom, 440)
	osc.SetPeriodicWave(&PeriodicWave{
		Real: []float64{0, 0.5, 0.3},
		Imag: []float64{0, math.Pi / 2, math.Pi / 2},
	})
	Connect(osc, ctx.Destination())
	osc.Start(0)
	buf, err := ctx.RenderFrames(2048)
	if err != nil {
		t.Fatal(err)
	}
	var peak float64
	for _, v := range buf {
		if a := math.Abs(float64(v)); a > peak {
			peak = a
		}
	}
	// Normalized waveform peaks at 1.
	if math.Abs(peak-1) > 1e-3 {
		t.Errorf("custom wave peak %g, want ≈ 1 (normalized)", peak)
	}
}

func TestCustomWaveWithoutCoefficientsPanics(t *testing.T) {
	ctx := defaultCtx()
	osc := ctx.NewOscillator(Custom, 440)
	Connect(osc, ctx.Destination())
	osc.Start(0)
	defer func() {
		if recover() == nil {
			t.Error("rendering custom oscillator without PeriodicWave did not panic")
		}
	}()
	_, _ = ctx.RenderFrames(128)
}

func TestGainScalesAndMutes(t *testing.T) {
	ctx := defaultCtx()
	osc := ctx.NewOscillator(Sine, 440)
	g := ctx.NewGain(0.5)
	Connect(osc, g)
	Connect(g, ctx.Destination())
	osc.Start(0)
	buf, err := ctx.RenderFrames(1024)
	if err != nil {
		t.Fatal(err)
	}
	var peak float64
	for _, v := range buf {
		if a := math.Abs(float64(v)); a > peak {
			peak = a
		}
	}
	if peak > 0.51 || peak < 0.45 {
		t.Errorf("gain 0.5 peak = %g, want ≈ 0.5", peak)
	}

	// Zero gain mutes entirely (the fingerprinting scripts' silencer).
	ctx2 := defaultCtx()
	osc2 := ctx2.NewOscillator(Sine, 440)
	g2 := ctx2.NewGain(0)
	Connect(osc2, g2)
	Connect(g2, ctx2.Destination())
	osc2.Start(0)
	buf2, _ := ctx2.RenderFrames(1024)
	for i, v := range buf2 {
		if v != 0 {
			t.Fatalf("muted graph produced %g at %d", v, i)
		}
	}
}

// TestAMModulationSidebands: connecting a modulator into a gain param must
// produce carrier±modulator sidebands — i.e. real ring/amplitude modulation.
func TestAMModulationSidebands(t *testing.T) {
	ctx := defaultCtx()
	carrier := ctx.NewOscillator(Sine, 10000)
	mod := ctx.NewOscillator(Sine, 1000)
	g := ctx.NewGain(1)
	ConnectParam(mod, g.Gain)
	Connect(carrier, g)
	an, err := ctx.NewAnalyser(2048)
	if err != nil {
		t.Fatal(err)
	}
	Connect(g, an)
	Connect(an, ctx.Destination())
	carrier.Start(0)
	mod.Start(0)
	if err := ctx.RenderQuanta(64); err != nil {
		t.Fatal(err)
	}
	freq := make([]float32, an.FrequencyBinCount())
	if err := an.GetFloatFrequencyData(freq); err != nil {
		t.Fatal(err)
	}
	binHz := testRate / 2048.0
	bin := func(hz float64) int { return int(hz/binHz + 0.5) }
	carrierDb := freq[bin(10000)]
	upperDb := freq[bin(11000)]
	lowerDb := freq[bin(9000)]
	noiseDb := freq[bin(5000)]
	if upperDb < noiseDb+20 || lowerDb < noiseDb+20 {
		t.Errorf("AM sidebands missing: carrier %g, upper %g, lower %g, noise floor %g",
			carrierDb, upperDb, lowerDb, noiseDb)
	}
}

// TestFMModulationSpreadsSpectrum: frequency modulation must spread energy
// into multiple sidebands around the carrier.
func TestFMModulationSpreadsSpectrum(t *testing.T) {
	ctx := defaultCtx()
	carrier := ctx.NewOscillator(Sine, 10000)
	mod := ctx.NewOscillator(Sine, 440)
	depth := ctx.NewGain(2000) // 2 kHz deviation
	Connect(mod, depth)
	ConnectParam(depth, carrier.Frequency)
	an, _ := ctx.NewAnalyser(2048)
	Connect(carrier, an)
	Connect(an, ctx.Destination())
	carrier.Start(0)
	mod.Start(0)
	if err := ctx.RenderQuanta(64); err != nil {
		t.Fatal(err)
	}
	freq := make([]float32, an.FrequencyBinCount())
	if err := an.GetFloatFrequencyData(freq); err != nil {
		t.Fatal(err)
	}
	// Count bins within ±3 kHz of carrier that are above -60 dB.
	binHz := testRate / 2048.0
	lo, hi := int(7000/binHz), int(13000/binHz)
	strong := 0
	for k := lo; k <= hi; k++ {
		if freq[k] > -60 {
			strong++
		}
	}
	if strong < 10 {
		t.Errorf("FM spectrum too narrow: %d strong bins in carrier region", strong)
	}
}

func TestCompressorReducesDynamicRange(t *testing.T) {
	ctx := defaultCtx()
	osc := ctx.NewOscillator(Triangle, 10000)
	comp := ctx.NewDynamicsCompressor()
	Connect(osc, comp)
	Connect(comp, ctx.Destination())
	osc.Start(0)
	buf, err := ctx.RenderFrames(testRate / 2)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Reduction() >= 0 {
		t.Errorf("compressor reduction = %g dB, want < 0 for a full-scale tone", comp.Reduction())
	}
	// Steady-state output magnitude must be below the unity input's.
	var peak float64
	for _, v := range buf[len(buf)/2:] {
		if a := math.Abs(float64(v)); a > peak {
			peak = a
		}
	}
	if peak > 1.0 || peak < 0.1 {
		t.Errorf("compressed steady-state peak = %g, want within (0.1, 1.0)", peak)
	}
}

func TestCompressorKneeEpsChangesOutput(t *testing.T) {
	render := func(eps float64) []float32 {
		tr := DefaultTraits()
		tr.CompressorKneeEps = eps
		ctx := NewContext(testRate, tr)
		osc := ctx.NewOscillator(Triangle, 10000)
		comp := ctx.NewDynamicsCompressor()
		Connect(osc, comp)
		Connect(comp, ctx.Destination())
		osc.Start(0)
		buf, err := ctx.RenderFrames(8192)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	a := render(0)
	b := render(1e-4)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("CompressorKneeEps had no effect on rendered output")
	}
}

func TestCompressorPreDelayChangesOutput(t *testing.T) {
	render := func(pd int) []float32 {
		tr := DefaultTraits()
		tr.CompressorPreDelay = pd
		return func() []float32 {
			ctx := NewContext(testRate, tr)
			osc := ctx.NewOscillator(Triangle, 10000)
			comp := ctx.NewDynamicsCompressor()
			Connect(osc, comp)
			Connect(comp, ctx.Destination())
			osc.Start(0)
			buf, _ := ctx.RenderFrames(4096)
			return buf
		}()
	}
	a, b := render(256), render(260)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("CompressorPreDelay had no effect")
	}
}

func TestAnalyserPeakAtOscillatorFrequency(t *testing.T) {
	ctx := defaultCtx()
	osc := ctx.NewOscillator(Sine, 10000)
	an, err := ctx.NewAnalyser(2048)
	if err != nil {
		t.Fatal(err)
	}
	Connect(osc, an)
	Connect(an, ctx.Destination())
	osc.Start(0)
	if err := ctx.RenderQuanta(32); err != nil {
		t.Fatal(err)
	}
	freq := make([]float32, an.FrequencyBinCount())
	if err := an.GetFloatFrequencyData(freq); err != nil {
		t.Fatal(err)
	}
	peakBin := 0
	for k, v := range freq {
		if v > freq[peakBin] {
			peakBin = k
		}
	}
	wantBin := 10000 * 2048 / testRate
	if peakBin < wantBin-1 || peakBin > wantBin+1 {
		t.Errorf("spectral peak at bin %d, want ≈ %d", peakBin, wantBin)
	}
}

func TestAnalyserSilenceIsNegInf(t *testing.T) {
	ctx := defaultCtx()
	an, _ := ctx.NewAnalyser(2048)
	Connect(an, ctx.Destination())
	if err := ctx.RenderQuanta(20); err != nil {
		t.Fatal(err)
	}
	freq := make([]float32, an.FrequencyBinCount())
	if err := an.GetFloatFrequencyData(freq); err != nil {
		t.Fatal(err)
	}
	for k, v := range freq {
		if !math.IsInf(float64(v), -1) {
			t.Fatalf("silent bin %d = %g, want -Inf", k, v)
		}
	}
}

func TestAnalyserSmoothingAcrossCalls(t *testing.T) {
	ctx := defaultCtx()
	osc := ctx.NewOscillator(Sawtooth, 2000)
	an, _ := ctx.NewAnalyser(2048)
	Connect(osc, an)
	Connect(an, ctx.Destination())
	osc.Start(0)
	_ = ctx.RenderQuanta(32)
	a := make([]float32, an.FrequencyBinCount())
	_ = an.GetFloatFrequencyData(a)
	_ = ctx.RenderQuanta(1)
	b := make([]float32, an.FrequencyBinCount())
	_ = an.GetFloatFrequencyData(b)
	diff := false
	for k := range a {
		if a[k] != b[k] {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("successive captures identical despite new audio — smoothing state not advancing")
	}
}

func TestAnalyserRejectsBadSizes(t *testing.T) {
	ctx := defaultCtx()
	for _, n := range []int{0, 16, 100, 65536} {
		if _, err := ctx.NewAnalyser(n); err == nil {
			t.Errorf("NewAnalyser(%d) succeeded", n)
		}
	}
	an, _ := ctx.NewAnalyser(2048)
	if err := an.GetFloatFrequencyData(make([]float32, 10)); err == nil {
		t.Error("short destination accepted")
	}
}

func TestScriptProcessorEventCadence(t *testing.T) {
	ctx := defaultCtx()
	osc := ctx.NewOscillator(Sine, 440)
	sp, err := ctx.NewScriptProcessor(4096)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	sp.OnAudioProcess = func(e AudioProcessEvent) {
		got = append(got, e.EventIndex)
		if len(e.InputBuffer) != 4096 {
			t.Errorf("event buffer length %d", len(e.InputBuffer))
		}
	}
	Connect(osc, sp)
	Connect(sp, ctx.Destination())
	osc.Start(0)
	// 4096/128 = 32 quanta per event; render 96 quanta ⇒ 3 events.
	if err := ctx.RenderQuanta(96); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || sp.Events() != 3 {
		t.Fatalf("events fired %d (%v), want 3", sp.Events(), got)
	}
	if _, err := ctx.NewScriptProcessor(100); err == nil {
		t.Error("bad buffer size accepted")
	}
}

func TestConnectAcrossContextsPanics(t *testing.T) {
	c1, c2 := defaultCtx(), defaultCtx()
	o := c1.NewOscillator(Sine, 440)
	defer func() {
		if recover() == nil {
			t.Error("cross-context connect did not panic")
		}
	}()
	Connect(o, c2.Destination())
}

func TestCycleDetection(t *testing.T) {
	ctx := defaultCtx()
	g1 := ctx.NewGain(1)
	g2 := ctx.NewGain(1)
	Connect(g1, g2)
	Connect(g2, g1)
	Connect(g2, ctx.Destination())
	if err := ctx.RenderQuanta(1); err == nil {
		t.Error("cycle rendered without error")
	}
}

// TestRealtimeCaptureOffsetMatters: for a modulated (non-stationary) signal,
// observing the analyser at different capture offsets yields different
// spectra — the fickleness mechanism.
func TestRealtimeCaptureOffsetMatters(t *testing.T) {
	capture := func(offset int) []float32 {
		rt := NewRealtimeSim(testRate, DefaultTraits())
		carrier := rt.NewOscillator(Triangle, 10000)
		mod := rt.NewOscillator(Sine, 7)
		depth := rt.NewGain(3000)
		Connect(mod, depth)
		ConnectParam(depth, carrier.Frequency)
		an, _ := rt.NewAnalyser(2048)
		Connect(carrier, an)
		g := rt.NewGain(0)
		Connect(an, g)
		Connect(g, rt.Destination())
		carrier.Start(0)
		mod.Start(0)
		if err := rt.CaptureAfter(40, offset); err != nil {
			t.Fatal(err)
		}
		out := make([]float32, an.FrequencyBinCount())
		_ = an.GetFloatFrequencyData(out)
		return out
	}
	a, b := capture(0), capture(3)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("capture offset had no effect on FM spectrum")
	}
	if err := (&RealtimeSim{Context: defaultCtx()}).CaptureAfter(-1, 0); err == nil {
		t.Error("negative capture accepted")
	}
	// Capture points count from the context's start: a later point
	// renders only the quanta in between, a passed one is refused.
	rt := NewRealtimeSim(testRate, DefaultTraits())
	Connect(rt.NewOscillator(Sine, 440), rt.Destination())
	if err := rt.CaptureAfter(4, 1); err != nil {
		t.Fatal(err)
	}
	if err := rt.CaptureAfter(4, 3); err != nil {
		t.Fatal(err)
	}
	if got := rt.CurrentFrame(); got != 7*RenderQuantum {
		t.Errorf("clock at frame %d after capturing at 4+1 then 4+3 quanta, want %d", got, 7*RenderQuantum)
	}
	if err := rt.CaptureAfter(4, 2); err == nil {
		t.Error("capture point already passed was accepted")
	}
}

// TestOfflineContext mirrors the DC vector's OfflineAudioContext usage.
func TestOfflineContext(t *testing.T) {
	oc := NewOfflineContext(44100, testRate, DefaultTraits())
	osc := oc.NewOscillator(Triangle, 10000)
	comp := oc.NewDynamicsCompressor()
	Connect(osc, comp)
	Connect(comp, oc.Destination())
	osc.Start(0)
	buf, err := oc.StartRendering()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 44100 {
		t.Fatalf("rendered %d frames", len(buf))
	}
}

// TestMixPrecisionMatters: summing many inputs in float32 vs float64 must
// change the output bits.
func TestMixPrecisionMatters(t *testing.T) {
	render := func(p Precision) []float32 {
		tr := DefaultTraits()
		tr.MixPrecision = p
		ctx := NewContext(testRate, tr)
		m := ctx.NewChannelMerger()
		for _, f := range []float64{440, 880, 1880, 22000} {
			o := ctx.NewOscillator(Sine, f)
			o.Start(0)
			Connect(o, m)
		}
		Connect(m, ctx.Destination())
		buf, _ := ctx.RenderFrames(4096)
		return buf
	}
	a, b := render(Mix64), render(Mix32)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("mix precision had no effect")
	}
}

// TestFlushDenormalsTrait: denormal flushing must alter decaying signals.
func TestFlushDenormalsTrait(t *testing.T) {
	tr := DefaultTraits()
	if tr.round32(1e-42) == 0 {
		t.Error("default traits flushed a subnormal")
	}
	tr.FlushDenormals = true
	if tr.round32(1e-42) != 0 {
		t.Error("FlushDenormals did not flush a subnormal")
	}
	if tr.round32(0.5) != 0.5 {
		t.Error("FlushDenormals damaged a normal value")
	}
}

// Property: rendered samples are always finite for a sane graph.
func TestRenderedSamplesFiniteProperty(t *testing.T) {
	f := func(freqSeed uint16) bool {
		freq := 20 + float64(freqSeed%20000)
		buf := renderTone(t, DefaultTraits(), Sawtooth, freq, 1024)
		for _, v := range buf {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkOfflineRenderOneSecond(b *testing.B) {
	for i := 0; i < b.N; i++ {
		oc := NewOfflineContext(44100, testRate, DefaultTraits())
		osc := oc.NewOscillator(Triangle, 10000)
		comp := oc.NewDynamicsCompressor()
		Connect(osc, comp)
		Connect(comp, oc.Destination())
		osc.Start(0)
		if _, err := oc.StartRendering(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyserCapture(b *testing.B) {
	ctx := defaultCtx()
	osc := ctx.NewOscillator(Triangle, 10000)
	an, _ := ctx.NewAnalyser(2048)
	Connect(osc, an)
	Connect(an, ctx.Destination())
	osc.Start(0)
	_ = ctx.RenderQuanta(32)
	out := make([]float32, an.FrequencyBinCount())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = an.GetFloatFrequencyData(out)
	}
}

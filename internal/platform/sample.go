package platform

import (
	"math/rand"
	"sort"
	"strconv"
)

// pickWeighted draws one label from a weighted catalog with rng.
func pickWeighted(rng *rand.Rand, ws []weighted) string {
	var total float64
	for _, w := range ws {
		total += w.weight
	}
	f := rng.Float64() * total
	for _, w := range ws {
		if f < w.weight {
			return w.label
		}
		f -= w.weight
	}
	return ws[len(ws)-1].label
}

// SampleCountry draws a participant country (57-country catalog, §2.3).
func SampleCountry(rng *rand.Rand) string {
	return pickWeighted(rng, countries)
}

// SampleOSVersion draws a detailed OS build key for the family.
func SampleOSVersion(rng *rand.Rand, os OSFamily) string {
	switch os {
	case Windows:
		return pickWeighted(rng, winVersions)
	case MacOS:
		return pickWeighted(rng, macVersions)
	case Android:
		return pickWeighted(rng, androidVersions)
	default:
		return pickWeighted(rng, linuxVersions)
	}
}

// SampleBrowserVersion draws (major, build, patch) for the browser.
func SampleBrowserVersion(rng *rand.Rand, b Browser) (major, build, patch int) {
	majors := majorsFor(b)
	weights := make([]float64, len(majors))
	for i, m := range majors {
		weights[i] = m.weight
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	f := rng.Float64() * total
	idx := len(majors) - 1
	for i, w := range weights {
		if f < w {
			idx = i
			break
		}
		f -= w
	}
	m := majors[idx]
	build = m.builds[rng.Intn(len(m.builds))]
	p, _ := strconv.Atoi(pickWeighted(rng, chromePatches))
	return m.major, build, p
}

// SampleAudioHardware draws the audio hardware tier, plus the device model
// for Android (whose UA exposes it; the audio stack follows the SoC).
func SampleAudioHardware(rng *rand.Rand, os OSFamily) (hw, model string) {
	switch os {
	case Windows:
		return "win", ""
	case MacOS:
		return pickWeighted(rng, macHardware), ""
	case Android:
		var total float64
		for _, m := range androidModels {
			total += m.weight
		}
		f := rng.Float64() * total
		for _, m := range androidModels {
			if f < m.weight {
				return m.soc, m.model
			}
			f -= m.weight
		}
		last := androidModels[len(androidModels)-1]
		return last.soc, last.model
	default:
		return pickWeighted(rng, linuxLibms), ""
	}
}

// SIMDFor selects the SIMD generation consistent with the machine's GPU:
// both track the machine's age, so the FFT dispatch tier is largely
// predictable from the canvas surface — another correlation that keeps
// audio's additive value modest (§4).
func SIMDFor(os OSFamily, audioHW, gpu string) string {
	switch os {
	case Android:
		return "neon"
	case MacOS:
		if len(audioHW) >= 2 && audioHW[len(audioHW)-2:] == "m1" {
			return "neon"
		}
		return "avx2"
	default:
		// Deterministic per GPU model, with the desktopSIMD catalog's
		// marginal shares.
		h := derive("simd:"+gpu, 0)
		f := float64(h>>11) / (1 << 53)
		var cum float64
		for _, w := range desktopSIMD {
			cum += w.weight
			if f < cum {
				return w.label
			}
		}
		return desktopSIMD[0].label
	}
}

// SampleRateFor draws the device's native audio sample rate in Hz.
func SampleRateFor(rng *rand.Rand, os OSFamily) float64 {
	var cat []weighted
	switch os {
	case Windows:
		cat = winRates
	case MacOS:
		cat = macRates
	case Android:
		cat = androidRates
	default:
		cat = linuxRates
	}
	v, _ := strconv.Atoi(pickWeighted(rng, cat))
	return float64(v)
}

// GPUFor selects the graphics stack consistent with the audio hardware: a
// Mac model or phone SoC *determines* its GPU, so the canvas and audio
// surfaces are correlated there (which caps the additive value audio brings
// over canvas — §4). Windows and Linux towers mix audio and graphics parts
// freely, so those stay independent draws.
func GPUFor(rng *rand.Rand, os OSFamily, audioHW string) string {
	switch os {
	case MacOS, Android:
		pool := gpusFor(os)
		return pool[int(derive(audioHW, 11)%uint64(len(pool)))].label
	default:
		return pickWeighted(rng, gpusFor(os))
	}
}

// SampleFontPacks draws the user's extra installed font packs (possibly
// none), sorted and de-duplicated.
func SampleFontPacks(rng *rand.Rand) []string {
	if rng.Float64() < 0.50 {
		return nil
	}
	n := 1
	for rng.Float64() < 0.55 && n < 5 {
		n++
	}
	seen := make(map[string]struct{}, n)
	for len(seen) < n {
		seen[pickWeighted(rng, fontPacks)] = struct{}{}
	}
	out := make([]string, 0, n)
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

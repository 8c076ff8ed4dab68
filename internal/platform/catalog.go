package platform

// This file holds the population catalogs: the discrete pools of hardware,
// OS builds, browser versions, GPUs and fonts that devices are assembled
// from, with market-share-style weights. The pools are sized so that a
// 2093-user draw lands near the paper's distinct-fingerprint counts
// (Tables 2 and 3); EXPERIMENTS.md records the achieved values.

// OSFamily is the operating-system family of a device.
type OSFamily string

// The OS families observed in the study (§2.3).
const (
	Windows OSFamily = "Windows"
	MacOS   OSFamily = "macOS"
	Android OSFamily = "Android"
	Linux   OSFamily = "Linux"
)

// Browser is the browser product of a device.
type Browser string

// The browsers observed in the study (§2.3).
const (
	Chrome          Browser = "Chrome"
	Edge            Browser = "Edge"
	Opera           Browser = "Opera"
	SamsungInternet Browser = "Samsung Internet"
	Silk            Browser = "Silk"
	Yandex          Browser = "Yandex"
	Firefox         Browser = "Firefox"
)

// Engine is the browser engine family.
type Engine string

// The two engine lineages in the study population.
const (
	Blink Engine = "Blink"
	Gecko Engine = "Gecko"
)

// EngineOf returns the engine lineage of a browser.
func EngineOf(b Browser) Engine {
	if b == Firefox {
		return Gecko
	}
	return Blink
}

// weighted is a label with a sampling weight.
type weighted struct {
	label  string
	weight float64
}

// ---------------------------------------------------------------------------
// Audio hardware tiers. The label feeds the compressor-trait derivation:
// one label per Windows engine stack (Windows audio is uniform per engine —
// Table 5), one per macOS hardware model, one per Android SoC, one per Linux
// libm/ALSA tier.

// macHardware are macOS hardware models (audio stack per model).
var macHardware = []weighted{
	{"mac:mbp-2019", 0.20}, {"mac:mbp-2020", 0.17}, {"mac:air-2019", 0.14},
	{"mac:air-2020-m1", 0.12}, {"mac:imac-2019", 0.10}, {"mac:mbp-2017", 0.08},
	{"mac:mini-2018", 0.06}, {"mac:mbp-2015", 0.05}, {"mac:imac-2017", 0.04},
	{"mac:pro-2019", 0.015}, {"mac:air-2017", 0.02}, {"mac:mini-2020-m1", 0.015},
	{"mac:imac-2015", 0.01},
}

// linuxLibms are Linux libm/audio-stack tiers (glibc + ALSA/Pulse combos).
var linuxLibms = []weighted{
	{"libm:glibc-2.31", 0.38}, {"libm:glibc-2.32", 0.22},
	{"libm:glibc-2.28", 0.16}, {"libm:glibc-2.27", 0.12},
	{"libm:musl-1.2", 0.04}, {"libm:glibc-2.33", 0.08},
}

// ---------------------------------------------------------------------------
// CPU SIMD generations: FFT-library dispatch tiers.

var desktopSIMD = []weighted{
	{"avx2", 0.88}, {"sse2", 0.08}, {"avx512", 0.04},
}

// Android is always NEON.

// ---------------------------------------------------------------------------
// Native sample rates by platform. The DC vector forces 44100 Hz offline and
// never sees these; the live-context vectors inherit them.

var winRates = []weighted{{"48000", 0.85}, {"44100", 0.15}}
var macRates = []weighted{{"44100", 0.95}, {"48000", 0.05}}
var androidRates = []weighted{{"48000", 0.92}, {"44100", 0.08}}
var linuxRates = []weighted{{"48000", 0.85}, {"44100", 0.15}}

// ---------------------------------------------------------------------------
// OS versions (detailed build keys; the UA renders a coarser form).

var winVersions = []weighted{
	{"10.0.19042", 0.42}, {"10.0.19041", 0.28}, {"10.0.18363", 0.14},
	{"10.0.17763", 0.08}, {"6.3.9600", 0.05}, {"6.1.7601", 0.03},
}

var macVersions = []weighted{
	{"10_15_7", 0.44}, {"11_2_3", 0.26}, {"11_1", 0.10},
	{"10_14_6", 0.12}, {"10_13_6", 0.05}, {"11_3", 0.03},
}

var androidVersions = []weighted{
	{"11", 0.30}, {"10", 0.42}, {"9", 0.20}, {"8.1.0", 0.08},
}

var linuxVersions = []weighted{
	{"x86_64", 0.78}, {"x86_64-ubuntu", 0.14}, {"x86_64-fedora", 0.08},
}

// ---------------------------------------------------------------------------
// Browser version catalogs: majors with weights (study window: March–May
// 2021), and per-major build pools. Patch numbers come from a small pool.

type browserMajor struct {
	major  int
	weight float64
	builds []int // Chrome-style build numbers for this major
}

var chromeMajors = []browserMajor{
	{90, 0.34, []int{4430}},
	{89, 0.36, []int{4389}},
	{88, 0.14, []int{4324}},
	{87, 0.06, []int{4280}},
	{86, 0.04, []int{4240}},
	{85, 0.025, []int{4183}},
	{83, 0.015, []int{4103}},
	{80, 0.010, []int{3987}},
	{78, 0.005, []int{3904}},
	{75, 0.005, []int{3770}},
}

var chromePatches = []weighted{
	{"93", 0.38}, {"212", 0.26}, {"90", 0.14}, {"72", 0.09},
	{"86", 0.06}, {"128", 0.04}, {"141", 0.02}, {"82", 0.01},
}

var edgeMajors = []browserMajor{
	{90, 0.45, []int{818}},
	{89, 0.40, []int{774}},
	{88, 0.15, []int{705}},
}

var operaMajors = []browserMajor{
	{75, 0.55, []int{3969}},
	{74, 0.30, []int{3911}},
	{73, 0.15, []int{3856}},
}

var samsungMajors = []browserMajor{
	{14, 0.60, []int{0}},
	{13, 0.30, []int{0}},
	{12, 0.10, []int{0}},
}

var silkMajors = []browserMajor{
	{89, 0.70, []int{0}},
	{88, 0.30, []int{0}},
}

var yandexMajors = []browserMajor{
	{21, 0.75, []int{3}},
	{20, 0.25, []int{12}},
}

var firefoxMajors = []browserMajor{
	{88, 0.42, []int{0}},
	{87, 0.30, []int{0}},
	{86, 0.16, []int{0}},
	{85, 0.07, []int{0}},
	{78, 0.05, []int{0}}, // ESR
}

func majorsFor(b Browser) []browserMajor {
	switch b {
	case Chrome:
		return chromeMajors
	case Edge:
		return edgeMajors
	case Opera:
		return operaMajors
	case SamsungInternet:
		return samsungMajors
	case Silk:
		return silkMajors
	case Yandex:
		return yandexMajors
	case Firefox:
		return firefoxMajors
	}
	return chromeMajors
}

// ---------------------------------------------------------------------------
// GPUs per OS family (canvas surface).

var winGPUs = []weighted{
	{"intel-uhd630", 0.28}, {"intel-uhd620", 0.19}, {"intel-hd520", 0.12},
	{"intel-hd4000", 0.05}, {"intel-irisxe", 0.04}, {"nvidia-gtx1050", 0.06},
	{"nvidia-gtx1060", 0.05}, {"nvidia-gtx1650", 0.05}, {"nvidia-rtx2060", 0.03},
	{"nvidia-rtx3070", 0.015}, {"nvidia-gtx970", 0.02}, {"nvidia-mx150", 0.02},
	{"amd-vega8", 0.035}, {"amd-rx580", 0.02}, {"amd-rx5700", 0.012},
	{"amd-r7", 0.012}, {"intel-hd3000", 0.012}, {"nvidia-gt710", 0.012},
	{"amd-hd7700", 0.005}, {"intel-uhd605", 0.005},
}

var macGPUs = []weighted{
	{"intel-iris655", 0.22}, {"intel-iris645", 0.18}, {"amd-pro560x", 0.14},
	{"apple-m1", 0.13}, {"intel-uhd617", 0.12}, {"amd-pro5500m", 0.09},
	{"intel-hd6100", 0.07}, {"amd-pro580x", 0.05},
}

var androidGPUs = []weighted{
	{"adreno650", 0.14}, {"adreno640", 0.12}, {"adreno630", 0.09},
	{"adreno618", 0.08}, {"adreno612", 0.06}, {"adreno610", 0.08},
	{"adreno506", 0.07}, {"mali-g77", 0.07}, {"mali-g76", 0.08},
	{"mali-g72", 0.06}, {"mali-g52", 0.05}, {"powervr-ge8320", 0.04},
	{"adreno660", 0.02}, {"mali-g78", 0.02}, {"adreno530", 0.02},
}

var linuxGPUs = []weighted{
	{"mesa-intel-uhd630", 0.25}, {"mesa-intel-hd520", 0.17},
	{"mesa-amd-polaris", 0.15}, {"nvidia-prop-460", 0.13},
	{"mesa-amd-navi", 0.08}, {"nvidia-prop-390", 0.07},
	{"mesa-nouveau", 0.06}, {"llvmpipe", 0.09},
}

func gpusFor(os OSFamily) []weighted {
	switch os {
	case Windows:
		return winGPUs
	case MacOS:
		return macGPUs
	case Android:
		return androidGPUs
	default:
		return linuxGPUs
	}
}

// ---------------------------------------------------------------------------
// Android device models, each tied to a SoC (UA shows the model; the audio
// stack follows the SoC).

type androidModel struct {
	model  string
	soc    string
	weight float64
}

var androidModels = []androidModel{
	{"SM-G991B", "soc:exynos2100", 0.03}, {"SM-G981B", "soc:exynos990", 0.05},
	{"SM-G975F", "soc:exynos9820", 0.05}, {"SM-A515F", "soc:exynos9611", 0.06},
	{"SM-A505F", "soc:exynos9611", 0.05}, {"SM-A217F", "soc:exynos850", 0.03},
	{"SM-N975F", "soc:exynos9825", 0.02}, {"Pixel 5", "soc:sd765", 0.04},
	{"Pixel 4", "soc:sd855", 0.04}, {"Pixel 3a", "soc:sd670", 0.02},
	{"Mi 9T", "soc:sd730", 0.05}, {"Mi 10T", "soc:sd865", 0.04},
	{"Redmi Note 8 Pro", "soc:helio-g90", 0.06}, {"Redmi Note 7", "soc:sd660", 0.05},
	{"Redmi 9", "soc:helio-g80", 0.04}, {"POCO X3", "soc:sd732", 0.04},
	{"OnePlus 8", "soc:sd865", 0.04}, {"OnePlus 7T", "soc:sd855", 0.03},
	{"OnePlus Nord", "soc:sd765", 0.03}, {"P30 Pro", "soc:kirin980", 0.04},
	{"Mate 20", "soc:kirin980", 0.02}, {"P20 Lite", "soc:kirin659", 0.03},
	{"Moto G8", "soc:sd665", 0.04}, {"Moto G7", "soc:sd632", 0.03},
	{"LM-G850", "soc:sd855", 0.01}, {"KFMUWI", "soc:mt8163", 0.02},
	{"KFONWI", "soc:mt8168", 0.02}, {"Nokia 5.3", "soc:sd665", 0.02},
	{"vivo 1904", "soc:helio-p35", 0.02}, {"CPH2127", "soc:sd460", 0.02},
	{"CPH1923", "soc:helio-p22", 0.02}, {"M2003J15SC", "soc:helio-g85", 0.02},
	{"SM-T510", "soc:exynos7904", 0.02}, {"SM-A125F", "soc:mt6765", 0.02},
}

// ---------------------------------------------------------------------------
// Font packs: the base set is fixed per OS build; users add packs (office
// suites, design tools, language packs) that the JS font probe detects.

var fontPacks = []weighted{
	{"ms-office", 0.20}, {"libreoffice", 0.09}, {"adobe-cc", 0.06},
	{"adobe-reader", 0.07}, {"google-fonts-pack", 0.05}, {"corel", 0.02},
	{"cjk-sc", 0.04}, {"cjk-tc", 0.02}, {"cjk-jp", 0.03}, {"cjk-kr", 0.02},
	{"devanagari-extra", 0.04}, {"thai-extra", 0.01}, {"arabic-extra", 0.03},
	{"cyrillic-extra", 0.03}, {"greek-extra", 0.01}, {"hebrew-extra", 0.01},
	{"latex-fonts", 0.02}, {"powerline", 0.01}, {"nerd-fonts", 0.02},
	{"source-code-pro", 0.02}, {"fira", 0.02}, {"jetbrains-mono", 0.02},
	{"roboto-full", 0.03}, {"noto-full", 0.04}, {"ubuntu-family", 0.02},
	{"dejavu-extra", 0.02}, {"liberation", 0.03}, {"croscore", 0.01},
	{"steam", 0.03}, {"epic-games", 0.01}, {"autocad", 0.01},
	{"solidworks", 0.005}, {"matlab", 0.01}, {"r-lang", 0.005},
	{"wine-fonts", 0.02}, {"gimp-extra", 0.01}, {"inkscape-extra", 0.01},
	{"figma-offline", 0.005}, {"sketch", 0.005}, {"affinity", 0.005},
	{"old-standard", 0.005}, {"eb-garamond", 0.01}, {"lato-full", 0.01},
	{"montserrat", 0.01}, {"oswald", 0.005}, {"raleway", 0.005},
	{"pt-family", 0.01}, {"exo", 0.003}, {"orbitron", 0.002},
	{"press-start", 0.002}, {"comic-neue", 0.003}, {"opendyslexic", 0.002},
	{"atkinson", 0.002}, {"spectral", 0.002}, {"vollkorn", 0.002},
}

// ---------------------------------------------------------------------------
// Countries: 57, with the US, India, Brazil and Italy as the four ≥100-user
// populations (§2.3).

var countries = []weighted{
	{"US", 0.275}, {"IN", 0.175}, {"BR", 0.095}, {"IT", 0.062},
	{"GB", 0.035}, {"DE", 0.030}, {"CA", 0.028}, {"ES", 0.024},
	{"FR", 0.022}, {"MX", 0.018}, {"PL", 0.015}, {"NL", 0.014},
	{"RO", 0.013}, {"PT", 0.012}, {"GR", 0.011}, {"TR", 0.011},
	{"ID", 0.010}, {"PH", 0.010}, {"VN", 0.009}, {"TH", 0.009},
	{"MY", 0.008}, {"PK", 0.008}, {"BD", 0.008}, {"NG", 0.008},
	{"KE", 0.007}, {"ZA", 0.007}, {"EG", 0.007}, {"MA", 0.006},
	{"AR", 0.006}, {"CL", 0.006}, {"CO", 0.006}, {"PE", 0.005},
	{"VE", 0.005}, {"UA", 0.005}, {"RU", 0.005}, {"RS", 0.004},
	{"BG", 0.004}, {"HU", 0.004}, {"CZ", 0.004}, {"SK", 0.003},
	{"HR", 0.003}, {"SI", 0.003}, {"LT", 0.003}, {"LV", 0.003},
	{"EE", 0.002}, {"IE", 0.004}, {"BE", 0.004}, {"AT", 0.004},
	{"CH", 0.003}, {"SE", 0.004}, {"NO", 0.003}, {"DK", 0.003},
	{"FI", 0.003}, {"AU", 0.006}, {"NZ", 0.003}, {"JP", 0.005},
	{"KR", 0.004},
}

// Package device defines the hardware profiles the engine's cost model and
// the benchmark simulator run against. The constants come straight from
// Appendix C of the paper: CPU capability is the sum of the k largest core
// frequencies, GPU capability is the measured per-GPU FLOPS list, and
// t_schedule is the per-dispatch driver overhead of each graphics API.
//
// Physical phones are unavailable in this reproduction (README "Simulated
// devices"), so these profiles drive a simulated clock instead of a real
// SoC; every number that the paper specifies is used verbatim.
package device

import "fmt"

// GPUAPI enumerates the graphics compute standards of Section 3.4.
type GPUAPI uint8

const (
	APINone GPUAPI = iota
	APIMetal
	APIOpenCL
	APIOpenGL
	APIVulkan
)

func (a GPUAPI) String() string {
	switch a {
	case APIMetal:
		return "Metal"
	case APIOpenCL:
		return "OpenCL"
	case APIOpenGL:
		return "OpenGL"
	case APIVulkan:
		return "Vulkan"
	default:
		return "None"
	}
}

// ScheduleOverheadMs returns t_schedule from Appendix C: 0.05 ms for
// OpenCL/OpenGL (clEnqueueNDRKernel-class calls), 0.01 ms for Vulkan
// (command-buffer submission only). Metal behaves like Vulkan's
// command-buffer model. CPU dispatch has no such term.
func (a GPUAPI) ScheduleOverheadMs() float64 {
	switch a {
	case APIOpenCL, APIOpenGL:
		return 0.05
	case APIVulkan, APIMetal:
		return 0.01
	default:
		return 0
	}
}

// gpuFLOPS is the Appendix C list (units: FLOPS, i.e. entries ×10⁹).
var gpuFLOPS = map[string]float64{
	"Mali-T860":       6.83e9,
	"Mali-T880":       6.83e9,
	"Mali-G51":        6.83e9,
	"Mali-G52":        6.83e9,
	"Mali-G71":        31.61e9,
	"Mali-G72":        31.61e9,
	"Mali-G76":        31.61e9,
	"Adreno (TM) 505": 3.19e9,
	"Adreno (TM) 506": 4.74e9,
	"Adreno (TM) 512": 14.23e9,
	"Adreno (TM) 530": 25.40e9,
	"Adreno (TM) 540": 42.74e9,
	"Adreno (TM) 615": 16.77e9,
	"Adreno (TM) 616": 18.77e9,
	"Adreno (TM) 618": 18.77e9,
	"Adreno (TM) 630": 42.74e9,
	"Adreno (TM) 640": 42.74e9,
	// Apple GPUs are not in the published list (the paper only measures
	// them through Metal); the A11's GPU is comparable to the Adreno 540
	// class in the paper's Figure 7, so it gets the same bucket.
	"Apple A11 GPU": 42.74e9,
}

// DefaultGPUFLOPS is the Appendix C fallback for GPUs not in the list:
// 4×10⁹, "faster than CPU, as is the normal case".
const DefaultGPUFLOPS = 4e9

// DefaultCPUFLOPS is the Appendix C fallback when core frequencies cannot
// be read: 2×10⁹.
const DefaultCPUFLOPS = 2e9

// GPUFLOPSFor looks up the Appendix C table, falling back per the paper.
func GPUFLOPSFor(gpu string) float64 {
	if f, ok := gpuFLOPS[gpu]; ok {
		return f
	}
	return DefaultGPUFLOPS
}

// Profile describes one device.
type Profile struct {
	Name string // marketing name, e.g. "MI6"
	SoC  string
	OS   string // "iOS" or "Android"

	// CPUFreqsGHz lists per-core maximum frequencies, sorted descending.
	CPUFreqsGHz []float64

	GPU     string
	GPUAPIs []GPUAPI
}

// CPUFLOPS implements Appendix C: the sum of the k largest core frequencies
// (k = thread count), in Hz. Falls back to DefaultCPUFLOPS when no
// frequency data is available.
func (p *Profile) CPUFLOPS(threads int) float64 {
	if len(p.CPUFreqsGHz) == 0 {
		return DefaultCPUFLOPS
	}
	if threads < 1 {
		threads = 1
	}
	if threads > len(p.CPUFreqsGHz) {
		threads = len(p.CPUFreqsGHz)
	}
	var sum float64
	for _, f := range p.CPUFreqsGHz[:threads] {
		sum += f * 1e9
	}
	return sum
}

// GPUFLOPS resolves the profile's GPU against the Appendix C table.
func (p *Profile) GPUFLOPS() float64 {
	if p.GPU == "" {
		return 0
	}
	return GPUFLOPSFor(p.GPU)
}

// HasAPI reports whether the device exposes the given graphics API.
func (p *Profile) HasAPI(api GPUAPI) bool {
	for _, a := range p.GPUAPIs {
		if a == api {
			return true
		}
	}
	return false
}

func (p *Profile) String() string {
	return fmt.Sprintf("%s (%s, GPU %s)", p.Name, p.SoC, p.GPU)
}

var androidAPIs = []GPUAPI{APIOpenCL, APIOpenGL, APIVulkan}

// The benchmark devices of Section 4 and the appendix tables.
var (
	// MI6: Snapdragon 835, Kryo 280 (4×2.45 + 4×1.90 GHz), Adreno 540.
	MI6 = &Profile{
		Name: "MI6", SoC: "Snapdragon 835", OS: "Android",
		CPUFreqsGHz: []float64{2.45, 2.45, 2.45, 2.45, 1.90, 1.90, 1.90, 1.90},
		GPU:         "Adreno (TM) 540", GPUAPIs: androidAPIs,
	}
	// Mate20: Kirin 980 (2×2.60 + 2×1.92 + 4×1.80 GHz), Mali-G76.
	Mate20 = &Profile{
		Name: "Mate20", SoC: "Kirin 980", OS: "Android",
		CPUFreqsGHz: []float64{2.60, 2.60, 1.92, 1.92, 1.80, 1.80, 1.80, 1.80},
		GPU:         "Mali-G76", GPUAPIs: androidAPIs,
	}
	// P10: Kirin 960, Cortex-A73 (4×2.36 + 4×1.84 GHz), Mali-G71.
	P10 = &Profile{
		Name: "P10", SoC: "Kirin 960", OS: "Android",
		CPUFreqsGHz: []float64{2.36, 2.36, 2.36, 2.36, 1.84, 1.84, 1.84, 1.84},
		GPU:         "Mali-G71", GPUAPIs: androidAPIs,
	}
	// P20 / P20 Pro: Kirin 970 (4×2.36 + 4×1.80 GHz), Mali-G72.
	P20 = &Profile{
		Name: "P20", SoC: "Kirin 970", OS: "Android",
		CPUFreqsGHz: []float64{2.36, 2.36, 2.36, 2.36, 1.80, 1.80, 1.80, 1.80},
		GPU:         "Mali-G72", GPUAPIs: androidAPIs,
	}
	P20Pro = &Profile{
		Name: "P20 Pro", SoC: "Kirin 970", OS: "Android",
		CPUFreqsGHz: []float64{2.36, 2.36, 2.36, 2.36, 1.80, 1.80, 1.80, 1.80},
		GPU:         "Mali-G72", GPUAPIs: androidAPIs,
	}
	// iPhone8 / iPhoneX: Apple A11 Bionic (2×2.39 + 4×1.70 GHz), Metal only.
	IPhone8 = &Profile{
		Name: "iPhone8", SoC: "Apple A11 Bionic", OS: "iOS",
		CPUFreqsGHz: []float64{2.39, 2.39, 1.70, 1.70, 1.70, 1.70},
		GPU:         "Apple A11 GPU", GPUAPIs: []GPUAPI{APIMetal},
	}
	IPhoneX = &Profile{
		Name: "iPhoneX", SoC: "Apple A11 Bionic", OS: "iOS",
		CPUFreqsGHz: []float64{2.39, 2.39, 1.70, 1.70, 1.70, 1.70},
		GPU:         "Apple A11 GPU", GPUAPIs: []GPUAPI{APIMetal},
	}
	// Pixel 2: Snapdragon 835. Pixel 3: Snapdragon 845 (Adreno 630).
	Pixel2 = &Profile{
		Name: "Pixel 2", SoC: "Snapdragon 835", OS: "Android",
		CPUFreqsGHz: []float64{2.35, 2.35, 2.35, 2.35, 1.90, 1.90, 1.90, 1.90},
		GPU:         "Adreno (TM) 540", GPUAPIs: androidAPIs,
	}
	Pixel3 = &Profile{
		Name: "Pixel 3", SoC: "Snapdragon 845", OS: "Android",
		CPUFreqsGHz: []float64{2.50, 2.50, 2.50, 2.50, 1.77, 1.77, 1.77, 1.77},
		GPU:         "Adreno (TM) 630", GPUAPIs: androidAPIs,
	}
	// Galaxy S8 (Table 5's TVM host): Snapdragon 835 variant.
	GalaxyS8 = &Profile{
		Name: "Galaxy S8", SoC: "Snapdragon 835", OS: "Android",
		CPUFreqsGHz: []float64{2.35, 2.35, 2.35, 2.35, 1.90, 1.90, 1.90, 1.90},
		GPU:         "Adreno (TM) 540", GPUAPIs: androidAPIs,
	}

	// Table 6's top-5 production devices.
	EMLAL00 = &Profile{ // Huawei P20, Kirin 970
		Name: "EML-AL00", SoC: "Kirin 970", OS: "Android",
		CPUFreqsGHz: []float64{2.36, 2.36, 2.36, 2.36, 1.80, 1.80, 1.80, 1.80},
		GPU:         "Mali-G72", GPUAPIs: androidAPIs,
	}
	PBEM00 = &Profile{ // OPPO, SDM670
		Name: "PBEM00", SoC: "SDM670", OS: "Android",
		CPUFreqsGHz: []float64{2.00, 2.00, 1.70, 1.70, 1.70, 1.70, 1.70, 1.70},
		GPU:         "Adreno (TM) 615", GPUAPIs: androidAPIs,
	}
	PACM00 = &Profile{ // OPPO R15, Cortex-A73
		Name: "PACM00", SoC: "Helio P60", OS: "Android",
		CPUFreqsGHz: []float64{2.00, 2.00, 2.00, 2.00, 2.00, 2.00, 2.00, 2.00},
		GPU:         "Mali-G72", GPUAPIs: androidAPIs,
	}
	COLAL10 = &Profile{ // Honor 10, Kirin 970
		Name: "COL-AL10", SoC: "Kirin 970", OS: "Android",
		CPUFreqsGHz: []float64{2.36, 2.36, 2.36, 2.36, 1.80, 1.80, 1.80, 1.80},
		GPU:         "Mali-G72", GPUAPIs: androidAPIs,
	}
	OPPOR11 = &Profile{ // Snapdragon 660, Kryo 260
		Name: "OPPO R11", SoC: "Snapdragon 660", OS: "Android",
		CPUFreqsGHz: []float64{2.20, 2.20, 2.20, 2.20, 1.80, 1.80, 1.80, 1.80},
		GPU:         "Adreno (TM) 512", GPUAPIs: androidAPIs,
	}

	// Host is a profile for the machine the test suite runs on: no
	// simulated GPU, generic CPU. Used when real wall-clock is measured.
	Host = &Profile{
		Name: "Host", SoC: "host", OS: "linux",
		CPUFreqsGHz: []float64{2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0},
	}
)

// All enumerates every built-in profile.
func All() []*Profile {
	return []*Profile{MI6, Mate20, P10, P20, P20Pro, IPhone8, IPhoneX, Pixel2, Pixel3,
		GalaxyS8, EMLAL00, PBEM00, PACM00, COLAL10, OPPOR11, Host}
}

// ByName finds a profile (case-sensitive); nil if absent.
func ByName(name string) *Profile {
	for _, p := range All() {
		if p.Name == name {
			return p
		}
	}
	return nil
}

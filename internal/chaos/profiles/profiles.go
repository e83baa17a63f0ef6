// Package profiles ships the named chaos profiles used by cmd/sweep and
// cmd/tune (-chaos <name>) and by the regression suites.
// Profiles live here rather than in package chaos so the injector mechanism
// stays policy-free; adding a profile is a data change, not a code change.
package profiles

import (
	"fmt"
	"sort"
	"strings"

	"nbctune/internal/chaos"
)

// registry maps profile name -> constructor of a fresh Profile value.
// Fresh values per call keep callers from aliasing the Shifts slice.
var registry = map[string]func() chaos.Profile{
	// os-jitter: healthy network, unhealthy OS — every rank suffers 2%
	// relative compute jitter and, with 8% probability per compute phase, a
	// 2 ms daemon detour. The detours are the heavy-tailed outliers ADCL's
	// Tukey filter exists for: plain means get dragged by them, robust
	// scores do not (EXPERIMENTS.md §E13a).
	"os-jitter": func() chaos.Profile {
		return chaos.Profile{
			Name:    "os-jitter",
			OSNoise: chaos.OSNoise{NoiseRel: 0.02, DetourProb: 0.08, DetourTime: 2e-3},
		}
	},

	// congested: a neighbor job shares the switch — 20 µs mean delivery
	// jitter on every inter-node message plus periodic bursts (~every 40 ms,
	// ~8 ms long) during which bandwidth collapses to 25% of nominal.
	"congested": func() chaos.Profile {
		return chaos.Profile{
			Name:          "congested",
			OSNoise:       chaos.OSNoise{NoiseRel: 0.005},
			JitterMean:    20e-6,
			BurstEvery:    40e-3,
			BurstLen:      8e-3,
			BurstBWFactor: 0.25,
		}
	},

	// slow-nic: a quarter of the nodes run a misnegotiated NIC at 40% of
	// nominal bandwidth; everyone else is clean. Stresses algorithms whose
	// critical path pivots on the slowest flow (e.g. linear alltoall).
	"slow-nic": func() chaos.Profile {
		return chaos.Profile{
			Name:             "slow-nic",
			OSNoise:          chaos.OSNoise{NoiseRel: 0.003},
			SlowNodeFrac:     0.25,
			SlowNodeBWFactor: 0.4,
		}
	},

	// regime-shift: the environment changes mid-run — clean until t=0.25 s
	// of virtual time, then the fabric degrades hard (4x latency, 8% of
	// nominal bandwidth), emulating the job being migrated onto a busy
	// shared switch. A winner tuned before the shift is wrong after it;
	// this is the profile the adaptive re-tuner is demonstrated against
	// (EXPERIMENTS.md §E13b).
	"regime-shift": func() chaos.Profile {
		return chaos.Profile{
			Name:    "regime-shift",
			OSNoise: chaos.OSNoise{NoiseRel: 0.002},
			Shifts: []chaos.Shift{
				{At: 0.25, LatencyFactor: 4, BandwidthFactor: 0.08},
			},
		}
	},
}

// Names returns the sorted list of shipped profile names.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ByName resolves a profile by name. "" and "off" resolve to (nil, nil):
// chaos disabled, the byte-identical clean path.
func ByName(name string) (*chaos.Profile, error) {
	if name == "" || name == "off" {
		return nil, nil
	}
	mk, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("unknown chaos profile %q (have: off, %s)", name, strings.Join(Names(), ", "))
	}
	p := mk()
	return &p, nil
}

package main

import (
	"fmt"
	"math/rand"
	"time"

	"ecldb/internal/loadprofile"
	"ecldb/internal/workload"
)

// spec is one benchmark workload: a database workload under a load
// profile scaled to the measured saturation capacity.
type spec struct {
	name string
	// workload is the ecldb workload name (workload.ByName).
	workload string
	// load builds the offered-load profile from the measured capacity
	// and the run seed.
	load func(capacityQps float64, seed int64) loadprofile.Profile
}

// drainTail is the zero-load stretch appended to the Twitter and Spike
// profiles, so every admitted query can finish inside the run: a query
// still in flight when the run stops is counted as failed, and without
// the tail the last few milliseconds of admissions always would be.
// idle-burst ends idle by construction.
const drainTail = 3 * time.Second

// Virtual lengths. The Twitter and Spike shapes are those of Figures 14
// and 13, compressed to these lengths; idle-burst holds burstCount
// one-second bursts, one per slot.
const (
	twitterLen = 30 * time.Second
	spikeLen   = 12 * time.Second
	burstCount = 10
	burstSlot  = 60 * time.Second
	burstLen   = time.Second
)

var specs = []spec{
	{
		name:     "kv-twitter",
		workload: "kv-indexed",
		load: func(capacity float64, _ int64) loadprofile.Profile {
			return withTail(loadprofile.Twitter{BaseQps: 0.8 * capacity, Len: twitterLen})
		},
	},
	{
		name:     "tatp-spike",
		workload: "tatp-indexed",
		load: func(capacity float64, _ int64) loadprofile.Profile {
			return withTail(loadprofile.Spike{PeakQps: 1.15 * capacity, Len: spikeLen})
		},
	},
	{
		name:     "idle-burst",
		workload: "kv-indexed",
		load: func(capacity float64, seed int64) loadprofile.Profile {
			return idleBurst(0.5*capacity, seed)
		},
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

func (s spec) newWorkload() workload.Workload { return workload.ByName(s.workload) }

// idleBurst places burstCount one-second bursts of qps, one in each
// burstSlot-long slot, at a seeded offset inside the slot; everything
// else is zero load. The offsets keep at least 10 s of idle before each
// burst and the drain tail after the last, so the run starts and ends
// quiescent.
func idleBurst(qps float64, seed int64) loadprofile.Profile {
	rng := rand.New(rand.NewSource(seed))
	slot := int(burstSlot / burstLen)
	levels := make([]float64, 0, burstCount*slot)
	for i := 0; i < burstCount; i++ {
		at := 10 + rng.Intn(slot-20)
		for j := 0; j < slot; j++ {
			if j == at {
				levels = append(levels, qps)
			} else {
				levels = append(levels, 0)
			}
		}
	}
	return loadprofile.Step{Levels: levels, StepLen: burstLen}
}

// tail extends a profile with drainTail of zero load.
type tail struct{ loadprofile.Profile }

func withTail(p loadprofile.Profile) loadprofile.Profile { return tail{p} }

func (t tail) QPS(at time.Duration) float64 {
	if at > t.Profile.Duration() {
		return 0
	}
	return t.Profile.QPS(at)
}

func (t tail) Duration() time.Duration { return t.Profile.Duration() + drainTail }

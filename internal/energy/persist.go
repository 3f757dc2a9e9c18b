package energy

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"ecldb/internal/hw"
	"ecldb/internal/units"
)

// Profile persistence. Energy profiles are maintained at runtime, but a
// DBMS restart should not have to re-learn them from scratch: the profile
// of a recurring workload can be saved and restored, and the online
// adaptation then merely refreshes it.

// profileFile is the serialized form of a profile.
type profileFile struct {
	Version int         `json:"version"`
	Entries []entryFile `json:"entries"`
}

// entryFile serializes one configuration with its measurements.
type entryFile struct {
	Threads   []bool  `json:"threads"`
	CoreMHz   []int   `json:"core_mhz"`
	UncoreMHz int     `json:"uncore_mhz"`
	PowerW    float64 `json:"power_w,omitempty"`
	Score     float64 `json:"score,omitempty"`
	Evaluated bool    `json:"evaluated,omitempty"`
	// LastEvalNs is the virtual evaluation timestamp.
	LastEvalNs int64 `json:"last_eval_ns,omitempty"`
}

// Save writes the profile (configurations and measurements) as JSON.
func (p *Profile) Save(w io.Writer) error {
	out := profileFile{Version: 1}
	for _, e := range p.entries {
		out.Entries = append(out.Entries, entryFile{
			Threads:    e.Config.Threads,
			CoreMHz:    e.Config.CoreMHz,
			UncoreMHz:  e.Config.UncoreMHz,
			PowerW:     e.PowerW.Watts(),
			Score:      e.Score.PerSecond(),
			Evaluated:  e.Evaluated,
			LastEvalNs: int64(e.LastEval),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// LoadProfile reads a profile saved by Save. Configurations are validated
// against the topology, and an evaluated entry's power, score and
// evaluation time with the check Profile.Update applies.
func LoadProfile(r io.Reader, topo hw.Topology) (*Profile, error) {
	var in profileFile
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("energy: decoding profile: %w", err)
	}
	if in.Version != 1 {
		return nil, fmt.Errorf("energy: unsupported profile version %d", in.Version)
	}
	cfgs := make([]hw.Configuration, 0, len(in.Entries))
	for i, ef := range in.Entries {
		cfg := hw.Configuration{Threads: ef.Threads, CoreMHz: ef.CoreMHz, UncoreMHz: ef.UncoreMHz}
		if err := cfg.Validate(topo); err != nil {
			return nil, fmt.Errorf("energy: entry %d: %w", i, err)
		}
		cfgs = append(cfgs, cfg)
	}
	p := NewProfile(topo, cfgs)
	for i, ef := range in.Entries {
		if !ef.Evaluated {
			continue
		}
		power, score := units.WattsOf(ef.PowerW), units.HertzOf(ef.Score)
		if err := checkMeasurement(power, score, time.Duration(ef.LastEvalNs)); err != nil {
			return nil, fmt.Errorf("energy: entry %d: %w", i, err)
		}
		e := p.Lookup(cfgs[i])
		if e == nil {
			continue // duplicate hardware state fused away
		}
		e.PowerW, e.Score = power, score
		e.Evaluated = true
		e.LastEval = time.Duration(ef.LastEvalNs)
	}
	return p, nil
}

package wris

import (
	"fmt"

	"kbtim/internal/graph"
	"kbtim/internal/prop"
	"kbtim/internal/rrset"
	"kbtim/internal/topic"
)

// SizingMode selects which per-keyword sample-count bound an offline index
// is built with — the ablation of Table 3.
type SizingMode int

// Sizing modes.
const (
	// SizeThetaHat uses θ̂_w (Eqn 8, OPT^{w}_1 in the denominator): the
	// conservative bound that Table 3 shows to be ~10× too large.
	SizeThetaHat SizingMode = iota
	// SizeTheta uses the improved θ_w (Eqn 10, OPT^{w}_K): the default.
	SizeTheta
)

// String names the mode for reports.
func (m SizingMode) String() string {
	switch m {
	case SizeThetaHat:
		return "theta-hat"
	case SizeTheta:
		return "theta"
	default:
		return fmt.Sprintf("sizing(%d)", int(m))
	}
}

// PlanThetaW computes the number of RR sets to pre-build for keyword w
// under the chosen sizing mode: it estimates the relevant OPT^{w} lower
// bound with a pilot round and applies Lemma 3 or Lemma 4. The boolean
// reports whether the configured cap truncated the bound.
func PlanThetaW(g *graph.Graph, model prop.Model, prof *topic.Profiles, w int, cfg Config, mode SizingMode) (int, bool, error) {
	if err := cfg.Validate(); err != nil {
		return 0, false, err
	}
	var theta int
	switch mode {
	case SizeThetaHat:
		opt1, err := EstimateOPTKeyword(g, model, prof, w, 1, cfg)
		if err != nil {
			return 0, false, err
		}
		theta = ThetaHatW(g.NumVertices(), prof.TFSum(w), cfg.K, cfg.Epsilon, opt1, cfg.MaxThetaPerKeyword)
	case SizeTheta:
		optK, err := EstimateOPTKeyword(g, model, prof, w, cfg.K, cfg)
		if err != nil {
			return 0, false, err
		}
		theta = ThetaW(g.NumVertices(), prof.TFSum(w), cfg.K, cfg.Epsilon, optK, cfg.MaxThetaPerKeyword)
	default:
		return 0, false, fmt.Errorf("wris: unknown sizing mode %d", mode)
	}
	capped := cfg.MaxThetaPerKeyword > 0 && theta == cfg.MaxThetaPerKeyword
	return theta, capped, nil
}

// SampleKeyword draws keyword w's R_w for an offline index: θ_w RR sets
// (PlanThetaW under mode) rooted with probability ps(v,w). The sampling seed
// is cfg.Seed mixed with w alone, so both index kinds built from the same
// inputs hold the same R_w (what makes Theorem 3 testable end to end), and a
// keyword's sets do not depend on which other keywords share its file, nor on
// cfg.Workers (rrset.Generate seeds each set by its index). The boolean
// reports whether the configured cap truncated θ_w.
func SampleKeyword(g *graph.Graph, model prop.Model, prof *topic.Profiles, w int, cfg Config, mode SizingMode) (*rrset.Batch, bool, error) {
	theta, capped, err := PlanThetaW(g, model, prof, w, cfg, mode)
	if err != nil {
		return nil, false, err
	}
	users, weights := KeywordSupport(prof, w)
	picker, err := rrset.NewWeightedRoots(users, weights)
	if err != nil {
		return nil, false, err
	}
	return rrset.Generate(g, model, picker, rrset.GenerateOptions{
		Count:   theta,
		Seed:    cfg.Seed ^ (uint64(w+1) * 0x9E3779B97F4A7C15),
		Workers: cfg.Workers,
	}), capped, nil
}

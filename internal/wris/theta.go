// Package wris implements the sampling theory and the online baselines of
// the paper: the θ lower bounds of Theorem 1 (RIS), Theorem 2 (WRIS) and
// Lemmas 3–4 (per-keyword θ̂_w and θ_w for offline index sizing), the OPT
// lower-bound estimation the bounds need, and the two online
// query-processing baselines — classic uniform RIS (not target-aware, the
// Table 8 comparator) and weighted WRIS (§3.2, the efficiency baseline that
// the RR and IRR indexes beat by two orders of magnitude).
package wris

import (
	"fmt"
	"math"
)

// Config carries the sampling parameters shared by the baselines and the
// index builders.
type Config struct {
	// Epsilon is the ε of the (1−1/e−ε) guarantee. The paper fixes 0.1 for
	// all experiments; tests and laptop benches typically use larger values
	// (θ scales with 1/ε²).
	Epsilon float64
	// K is the system-wide cap on Q.k used for offline index sizing
	// (§4.2: "Q.k ≤ K ∀Q"; the paper sets K=100 with max Q.k 50).
	K int
	// PilotSets is the RR-sample budget for each OPT lower-bound
	// estimation.
	PilotSets int
	// MaxThetaPerKeyword caps θ_w (and online θ) so a mis-parameterized
	// run cannot exhaust memory; 0 means no cap. Capping trades the formal
	// guarantee for a best-effort answer and is reported by the builders.
	MaxThetaPerKeyword int
	// Seed drives all sampling.
	Seed uint64
	// Workers bounds sampling concurrency (0 = GOMAXPROCS); it changes
	// speed, never a sampled set. The paper builds indexes with 8 threads.
	Workers int
}

// DefaultConfig mirrors the paper's experimental defaults (ε=0.1, K=100).
func DefaultConfig() Config {
	return Config{
		Epsilon:   0.1,
		K:         100,
		PilotSets: 4096,
		Seed:      1,
	}
}

// Validate checks parameter sanity.
func (c Config) Validate() error {
	if c.Epsilon <= 0 || c.Epsilon >= 1 {
		return fmt.Errorf("wris: epsilon must be in (0,1), got %v", c.Epsilon)
	}
	if c.K <= 0 {
		return fmt.Errorf("wris: K must be positive, got %d", c.K)
	}
	if c.PilotSets <= 0 {
		return fmt.Errorf("wris: PilotSets must be positive, got %d", c.PilotSets)
	}
	if c.MaxThetaPerKeyword < 0 {
		return fmt.Errorf("wris: negative MaxThetaPerKeyword")
	}
	return nil
}

// LnChoose returns ln C(n, k) via log-gamma, the ln(|V| choose k) term of
// every θ bound.
func LnChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	if k == 0 || k == n {
		return 0
	}
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x + 1))
		return v
	}
	return lg(n) - lg(k) - lg(n-k)
}

// logTerm returns ln|V| + ln C(|V|,k) + ln 2, shared by all bounds.
// k is clamped to [0, |V|]: callers may size an index with a system cap K
// exceeding a small graph's vertex count, where "any seed set" means "all
// vertices" and the binomial term vanishes.
func logTerm(numVertices, k int) float64 {
	if k > numVertices {
		k = numVertices
	}
	if k < 0 {
		k = 0
	}
	return math.Log(float64(numVertices)) + LnChoose(numVertices, k) + math.Ln2
}

// clampTheta converts the real-valued bound to a usable sample count.
func clampTheta(theta float64, cap int) int {
	if math.IsNaN(theta) || theta < 1 {
		theta = 1
	}
	if theta > float64(math.MaxInt32) {
		theta = float64(math.MaxInt32)
	}
	t := int(math.Ceil(theta))
	if cap > 0 && t > cap {
		t = cap
	}
	return t
}

// ThetaRIS returns the Theorem 1 bound for classic uniform RIS:
// θ ≥ (8+2ε)·|V|·(ln|V| + ln C(|V|,k) + ln 2)/(OPT_k·ε²), with OPT_k the
// (estimated) optimal unweighted spread.
func ThetaRIS(numVertices, k int, eps, optK float64, maxTheta int) int {
	if optK <= 0 {
		return clampTheta(math.Inf(1), maxTheta)
	}
	theta := (8 + 2*eps) * float64(numVertices) * logTerm(numVertices, k) / (optK * eps * eps)
	return clampTheta(theta, maxTheta)
}

// ThetaWRIS returns the Theorem 2 bound for weighted sampling:
// θ ≥ (8+2ε)·φ_Q·(ln|V| + ln C(|V|,Q.k) + ln 2)/(OPT^{Q.T}_{Q.k}·ε²).
// phiQ and opt must be in the same (tf-idf) units.
func ThetaWRIS(numVertices, k int, eps, phiQ, opt float64, maxTheta int) int {
	if opt <= 0 {
		return clampTheta(math.Inf(1), maxTheta)
	}
	theta := (8 + 2*eps) * phiQ * logTerm(numVertices, k) / (opt * eps * eps)
	return clampTheta(theta, maxTheta)
}

// ThetaHatW returns the Lemma 3 per-keyword bound (Eqn 8):
// θ̂_w = (8+2ε)·(Σ_v tf_{w,v})·(ln|V| + ln C(|V|,K) + ln 2)/(OPT^{w}_1·ε²),
// where opt1 = OPT^{w}_1 is the best single-seed spread in tf units
// (Σ_v p(S→v)·tf_{w,v}; the idf factor cancels, see Lemma 3's proof).
// This is the conservative sizing that Table 3 shows to be an order of
// magnitude too large.
func ThetaHatW(numVertices int, tfSum float64, bigK int, eps, opt1 float64, maxTheta int) int {
	if opt1 <= 0 {
		return clampTheta(math.Inf(1), maxTheta)
	}
	theta := (8 + 2*eps) * tfSum * logTerm(numVertices, bigK) / (opt1 * eps * eps)
	return clampTheta(theta, maxTheta)
}

// ThetaW returns the Lemma 4 improved bound (Eqn 10): identical to ThetaHatW
// but with OPT^{w}_K (best K-seed spread in tf units) in the denominator,
// shrinking the index by roughly K/Q.k.
func ThetaW(numVertices int, tfSum float64, bigK int, eps, optK float64, maxTheta int) int {
	if optK <= 0 {
		return clampTheta(math.Inf(1), maxTheta)
	}
	theta := (8 + 2*eps) * tfSum * logTerm(numVertices, bigK) / (optK * eps * eps)
	return clampTheta(theta, maxTheta)
}

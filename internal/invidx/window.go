package invidx

import (
	"fmt"

	"ucat/internal/query"
	"ucat/internal/uda"
)

// WindowPETQ answers the paper's relaxed equality query on ordered domains
// (§2): all tuples t with Pr(|q − t| ≤ c) > tau. Window equality is a plain
// weighted dot product against the box-filtered query
// w = Smear(q, c) — Pr(|q−t| ≤ c) = Σ_i w_i · t_i — so the search joins the
// inverted lists of w's support with w as the per-list weight, exactly like
// the brute-force equality search with a wider query.
func (r *Reader) WindowPETQ(q uda.UDA, c uint32, tau float64) ([]query.Match, error) {
	if tau < 0 {
		return nil, fmt.Errorf("invidx: negative threshold %g", tau)
	}
	res, err := r.bruteForce(uda.Smear(q, c), tau)
	if err != nil {
		return nil, err
	}
	query.SortMatches(res)
	return res, nil
}

// WindowTopK returns the k tuples with the highest window-equality
// probability Pr(|q − t| ≤ c).
func (r *Reader) WindowTopK(q uda.UDA, c uint32, k int) ([]query.Match, error) {
	if k <= 0 {
		return nil, fmt.Errorf("invidx: non-positive k %d", k)
	}
	return r.bruteForceTopK(uda.Smear(q, c), k)
}

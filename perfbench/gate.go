package main

import (
	"encoding/json"
	"fmt"
	"math"

	"analogacc/internal/la"
	"analogacc/internal/serve"
)

// The correctness gate. Every answer the benchmark receives is checked
// here, after its latency has been taken, and a request whose answer
// fails any check is counted as failed: it is never dropped or retried.
// The benchmark recomputes residuals itself rather than trusting the
// residual the server reports.

// residualSlack is how far past the requested tolerance an answer's
// relative residual may land before it counts as wrong.
const residualSlack = 10

// checkAnswer verifies one solution u of a·u = b: the right length,
// every value finite, and ‖b − a·u‖∞ ≤ residualSlack·tol·‖b‖∞ (the
// infinity-norm form of the tolerance the solver refines to).
func checkAnswer(a *la.CSR, b la.Vector, u []float64, tol float64) error {
	if len(u) != a.Dim() {
		return fmt.Errorf("answer has %d values, system order is %d", len(u), a.Dim())
	}
	for i, v := range u {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("answer value %d is %v", i, v)
		}
	}
	r := la.NewVector(a.Dim())
	a.Apply(r, la.Vector(u))
	var rn, bn float64
	for i := range r {
		rn = math.Max(rn, math.Abs(b[i]-r[i]))
		bn = math.Max(bn, math.Abs(b[i]))
	}
	if bn == 0 {
		bn = 1
	}
	if rel := rn / bn; !(rel <= residualSlack*tol) {
		return fmt.Errorf("relative residual %.3g exceeds %g", rel, residualSlack*tol)
	}
	return nil
}

// checkJob verifies a finished solve job: it must have reached state
// done, and its result must be a correct answer.
func checkJob(a *la.CSR, b la.Vector, st *serve.JobStatus, tol float64) (*serve.SolveResponse, error) {
	if st.State != "done" {
		msg := ""
		if st.Error != nil {
			msg = ": " + st.Error.Code + " " + st.Error.Error
		}
		return nil, fmt.Errorf("job %s ended %s%s", st.ID, st.State, msg)
	}
	var resp serve.SolveResponse
	if err := json.Unmarshal(st.Result, &resp); err != nil {
		return nil, fmt.Errorf("job %s result: %w", st.ID, err)
	}
	if err := checkAnswer(a, b, resp.U, tol); err != nil {
		return nil, fmt.Errorf("job %s: %w", st.ID, err)
	}
	return &resp, nil
}

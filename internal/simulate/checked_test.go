package simulate

import (
	"testing"

	"fbcache/internal/bundle"
	"fbcache/internal/policy"
)

// checkedPolicy wraps a policy and verifies its cache invariants after every
// admission, failing the test at the first violation. Tests hand it to Run
// and RunHybrid in place of the bare policy.
type checkedPolicy struct {
	policy.Policy
	t      testing.TB
	admits int
}

func checked(t testing.TB, p policy.Policy) policy.Policy {
	return &checkedPolicy{Policy: p, t: t}
}

func (c *checkedPolicy) Admit(b bundle.Bundle) policy.Result {
	res := c.Policy.Admit(b)
	c.admits++
	if err := c.Cache().CheckInvariants(); err != nil {
		c.t.Fatalf("%s: invariant violated after %d admissions: %v", c.Name(), c.admits, err)
	}
	return res
}

package softbarrier

// sameOrder and policyOrder in a comment compare nothing.
func policyOrder(p int) []int { return nil }

func sameOrder(a, b []int) bool { return len(a) == len(b) }

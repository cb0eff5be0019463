package softbarrier

// RecommendConfig in a comment decides nothing.
func RecommendConfig(p int) (degree int, dynamic bool) { return 2, false }

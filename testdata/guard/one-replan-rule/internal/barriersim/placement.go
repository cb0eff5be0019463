package barriersim

// RunPlacement is a second placement loop beside the controller's.
func RunPlacement(p, replanEvery int) int {
	if orderEq(nil, nil) {
		return 0
	}
	return p
}

func orderEq(a, b []int) bool { return true }

package cli

import "strings"

func opByName(name string, ops []struct{ Name string }) int {
	for i, op := range ops {
		if strings.EqualFold(op.Name, name) {
			return i
		}
	}
	return -1
}

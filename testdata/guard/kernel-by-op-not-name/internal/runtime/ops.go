package runtime

import str "strings"

type Op struct {
	Name string
	Fold func(dst, src []byte)
}

var kernels = map[string]int{"sum-u64": 1}

// wordKernel picks a kernel by name: every use of op.Name below is one the
// guard forbids, but this comment's "op.Name == x" is not code.
func wordKernel(op Op, other *Op) int {
	if op.Name == "sum-u64" {
		return 1
	}
	if "max-u64" != other.Name {
		return 2
	}
	switch op.Name {
	case "min-u64":
		return 3
	}
	switch "prod-u64" {
	case op.Name:
		return 4
	}
	if len(op.Name) == 0 {
		return 5
	}
	if str.HasPrefix(op.Name, "sum") {
		return kernels[op.Name]
	}
	return len(str.ToUpper("Name == x"))
}

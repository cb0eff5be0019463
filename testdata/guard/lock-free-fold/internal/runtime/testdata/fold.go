package fold

type FoldNode struct{}

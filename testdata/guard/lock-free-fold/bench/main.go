package main

type FoldNode struct{}

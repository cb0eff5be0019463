package runtime

func foldNode() {}

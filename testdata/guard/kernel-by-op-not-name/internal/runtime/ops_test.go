package runtime

func sameName(a, b Op) bool { return a.Name == b.Name }

package word

func byName(name string, op struct{ Name string }) bool { return op.Name == name }

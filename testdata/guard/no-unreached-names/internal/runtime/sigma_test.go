package runtime

var weight = 0.5

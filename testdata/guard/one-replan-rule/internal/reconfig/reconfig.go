package reconfig

func Replan(p int) {}

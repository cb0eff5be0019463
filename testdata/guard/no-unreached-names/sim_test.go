package softbarrier

func Summarize() {}

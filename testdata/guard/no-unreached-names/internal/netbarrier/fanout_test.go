package netbarrier

type sendJob struct{ relPending int }

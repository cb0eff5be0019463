package loadmodel

import "sync"

var testLock sync.Mutex

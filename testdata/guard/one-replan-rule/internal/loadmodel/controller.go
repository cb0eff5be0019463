package loadmodel

import "sync"

// Controller steps under a lock of its own.
type Controller struct{ mu sync.Mutex }

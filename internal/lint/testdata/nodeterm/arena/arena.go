// Fixture loaded as sessionproblem/internal/arena: the arenas back
// recorded traces, so any nondeterminism here (timestamped buffers, random
// chunk sizing) would leak into results — every source is diagnosed.
package arena

import (
	"math/rand" // want `import of math/rand in deterministic package`
	"time"
)

func stamp() int64 { return time.Now().UnixNano() } // want `time\.Now in deterministic package`

func chunkSize() int { return 1024 + rand.Intn(8) }

// Capacity arithmetic on durations stays legal; only wall-clock entry
// points are banned.
func ttl(d time.Duration) time.Duration { return 2 * d }

// Package ctxpos exercises the ctxflow analyzer: it lives under
// repro/internal/plan, so it is both library scope (Background is banned)
// and entry scope (exported blocking entry points need a cancellation path).
package ctxpos

import (
	"context"
	"sync"
)

// Runner is an exported receiver, so its exported methods are entry points.
type Runner struct {
	wg sync.WaitGroup
}

// Opts is the options-struct threading idiom: a Ctx field counts as a
// cancellation path.
type Opts struct {
	Ctx context.Context
}

// Wait blocks with no ctx parameter, no options struct and no WaitContext
// sibling: the analyzer must fire.
func (r *Runner) Wait() { // want "Wait is an exported blocking entry point with no cancellation path"
	r.wg.Wait()
}

// Gather blocks but accepts ctx: silent.
func (r *Runner) Gather(ctx context.Context, ch chan int) int {
	select {
	case v := <-ch:
		return v
	case <-ctx.Done():
		return 0
	}
}

// Drain blocks but takes an options struct carrying a Ctx field: silent.
func (r *Runner) Drain(o *Opts, ch chan int) {
	v := <-ch
	_ = v
	_ = o
}

// Execute blocks without ctx. Its ExecuteContext sibling exempts neither
// the missing cancellation path nor the context.Background() mint.
func (r *Runner) Execute(ch chan int) { // want "Execute is an exported blocking entry point with no cancellation path"
	<-ch
	r.ExecuteContext(context.Background(), ch) // want `context.Background\(\) in library code`
}

// ExecuteContext blocks but accepts ctx: silent.
func (r *Runner) ExecuteContext(ctx context.Context, ch chan int) {
	select {
	case <-ch:
	case <-ctx.Done():
	}
}

// Close is the lifecycle teardown exemption: silent despite blocking.
func (r *Runner) Close() {
	r.wg.Wait()
}

// NewRunner is the constructor exemption: silent despite spawning workers
// that block.
func NewRunner(ch chan int) *Runner {
	r := &Runner{}
	<-ch
	return r
}

// detach has no Context sibling, so its Background call is flagged.
func detach(ch chan int) {
	ctx := context.Background() // want `context.Background\(\) in library code`
	_ = ctx
	todo := context.TODO() // want `context.TODO\(\) in library code`
	_ = todo
	<-ch
}

// shapeSecond takes ctx in the wrong position.
func shapeSecond(n int, ctx context.Context) { // want "context.Context must be the first parameter of shapeSecond"
	_ = n
	_ = ctx
}

// shapeName misnames the context parameter.
func shapeName(c context.Context) { // want "must be named ctx, not c"
	_ = c
}

// shapeUnused accepts ctx and drops it on the floor.
func shapeUnused(ctx context.Context, n int) int { // want "accepts ctx but never uses it"
	return n + 1
}

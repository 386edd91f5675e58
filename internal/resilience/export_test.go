package resilience

import "context"

// Do is DoValue for operations that produce no value.
func Do(ctx context.Context, p Policy, op func(context.Context) error) error {
	_, err := DoValue(ctx, p, func(ctx context.Context) (struct{}, error) {
		return struct{}{}, op(ctx)
	})
	return err
}

// Do runs op through the breaker: shed with ErrBreakerOpen when the circuit
// is open, otherwise executed and its outcome recorded.
func (b *Breaker) Do(op func() error) error {
	if err := b.Allow(); err != nil {
		return err
	}
	err := op()
	b.record(err)
	return err
}

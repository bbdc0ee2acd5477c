package optim

// Option configures the SGD constructor. Options are applied in argument
// order, later options overriding earlier ones.
type Option func(*settings)

// settings is the resolved option set.
type settings struct {
	lr          float64
	momentum    float64
	weightDecay float64
}

// resolve applies opts over the package defaults.
func resolve(opts []Option) settings {
	st := settings{lr: 0.1}
	for _, o := range opts {
		o(&st)
	}
	return st
}

// WithLR sets the initial learning rate (default 0.1). Schedules typically
// override it per epoch through Optimizer.SetLR.
func WithLR(lr float64) Option { return func(s *settings) { s.lr = lr } }

// WithMomentum sets the momentum coefficient (default 0; paper: 0.9).
func WithMomentum(m float64) Option { return func(s *settings) { s.momentum = m } }

// WithWeightDecay sets the L2 weight-decay coefficient (default 0).
// Parameters flagged nn.Param.NoWeightDecay are always excluded.
func WithWeightDecay(wd float64) Option { return func(s *settings) { s.weightDecay = wd } }

package optim

// Option configures an optimizer constructor (SGD, LARS, Adam). Options are
// applied in argument order, later options overriding earlier ones; options
// irrelevant to a constructor (e.g. WithBetas on SGD) are accepted and
// ignored, so one option slice can parameterize several optimizer families.
type Option func(*settings)

// settings is the resolved option set shared by every constructor.
type settings struct {
	lr           float64
	momentum     float64
	weightDecay  float64
	eta          float64 // LARS trust coefficient
	beta1, beta2 float64 // Adam moment decays
	eps          float64 // Adam denominator floor
}

// resolve applies opts over the package defaults.
func resolve(opts []Option) settings {
	st := settings{
		lr:    0.1,
		eta:   0.001,
		beta1: 0.9,
		beta2: 0.999,
		eps:   1e-8,
	}
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

// WithTrustCoefficient sets LARS's η trust coefficient (default 0.001).
func WithTrustCoefficient(eta float64) Option { return func(s *settings) { s.eta = eta } }

// WithBetas sets Adam's first/second-moment decay rates (default 0.9,
// 0.999).
func WithBetas(beta1, beta2 float64) Option {
	return func(s *settings) { s.beta1, s.beta2 = beta1, beta2 }
}

// WithEpsilon sets Adam's denominator floor ε (default 1e-8).
func WithEpsilon(eps float64) Option { return func(s *settings) { s.eps = eps } }

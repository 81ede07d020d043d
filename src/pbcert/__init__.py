"""PAC-Bayes generalization certificates for small feedforward classifiers.

The package builds valid high-probability upper bounds on the expected
zero-one risk of randomized classifiers.  Posterior families range from
isotropic Gaussians through diagonal (mean-field) posteriors, closed-form
curvature-matched posteriors, up to per-neuron block posteriors held as
diagonal Gaussians in each layer's Hessian eigenbasis.
Certificates over a (beta, lambda) grid are summarised as Risk-Complexity
Pareto fronts.
"""

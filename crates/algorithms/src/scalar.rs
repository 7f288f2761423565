//! The scalar-algorithm bound.

use crate::{Algorithm, Point};

/// An algorithm whose state and messages are single scalars
/// ([`Point<1>`]): midpoint, mean-value and self-weighted averaging
/// among the built-in rules. Blanket-implemented for every such
/// [`Algorithm<1>`]; it adds no methods — the one executor steps every
/// algorithm through [`Algorithm::step`].
pub trait ScalarKernel: Algorithm<1, State = Point<1>, Msg = Point<1>> {}

impl<A: Algorithm<1, State = Point<1>, Msg = Point<1>>> ScalarKernel for A {}

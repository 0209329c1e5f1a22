"""Built-in engine backends, one module each.  A module registers its
backend at import; :data:`repro.engine.registry.BUILTIN` names them and
the registry imports one only when its name is resolved."""

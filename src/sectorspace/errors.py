"""Exception types shared across the package."""


class SectorSpaceError(ValueError):
    """Base class for every error this package raises on bad input."""


class SchemaError(SectorSpaceError):
    """A file does not conform to its declared schema (bad column, date, amount)."""


class IntegrityError(SectorSpaceError):
    """Referential integrity violation: a foreign key does not resolve."""


class OntologyError(SectorSpaceError):
    """Malformed sector ontology or unknown parent tag."""


class AnalysisError(SectorSpaceError):
    """An analysis operation received inputs it cannot work with."""

"""Exact computations with symmetric-group-stable subvarieties of A^inf.

The package decides the combining order of partitions, enumerates
correspondences, computes closure constructions on finite point-set
varieties, decides membership and containment, and synthesizes exact
polynomial generator sets for the defining ideals of type loci and of
classified subvarieties.
"""

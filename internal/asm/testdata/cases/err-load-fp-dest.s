_start:
	fld a0, 8(a1)
